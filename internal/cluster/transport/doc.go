// Package transport provides the message fabric the cluster runtime's
// snodes communicate over.  The paper's model assumes the basic properties
// of a cluster interconnect — reliable delivery, short one-hop paths, high
// bandwidth, no partitions (§5) — so the abstraction is deliberately small:
// asynchronous, reliable, FIFO-per-sender-receiver-pair message passing.
//
// Two implementations are provided: an in-memory fabric built on unbounded
// mailboxes (the default for simulations and tests), and a TCP fabric for
// loopback or real interfaces.  On TCP every envelope travels as one
// length-prefixed, versioned frame (codec.go): payloads implement
// WireMessage with a hand-rolled binary codec whose decoder is registered
// via RegisterWire, and each (From, To) pair owns one
// connection drained by a dedicated writer goroutine with a byte-budgeted
// queue and flush coalescing.  docs/WIRE.md is the formal format spec.
package transport
