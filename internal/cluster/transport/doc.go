// Package transport provides the message fabric the cluster runtime's
// snodes communicate over.  The paper's model assumes the basic properties
// of a cluster interconnect — reliable delivery, short one-hop paths, high
// bandwidth, no partitions (§5) — so the abstraction is deliberately small:
// asynchronous, reliable, FIFO-per-sender-receiver-pair message passing.
//
// There is one fabric with two media.  NewTCP carries it over TCP
// sockets, on loopback or real interfaces; NewMem over in-process
// net.Pipe connections, the default for simulations and tests, which
// opens no socket.  Either way every envelope travels as one
// length-prefixed, versioned frame (codec.go): payloads implement
// WireMessage with a hand-rolled binary codec whose decoder is registered
// via RegisterWire, and each (From, To) pair owns one connection drained
// by a dedicated writer goroutine with a byte-budgeted queue and flush
// coalescing.  The receiver's read loop decodes each frame, judges it
// against the Faults plan and hands it to the endpoint's inbox, so every
// received message is a fresh value that shares nothing with its sender.
// Each hop has one bound: the inbox holds 256 envelopes, and a read loop
// that finds it full stops reading, so the backlog moves into the
// sender's writer queue, whose byte budget (DefaultWriterBudget) makes
// Send fail and tears the connection down.  docs/WIRE.md is the formal
// format spec.
package transport
