package transport

// NodeID identifies an endpoint on the fabric: a cluster node hosting an
// snode, or a client endpoint.
type NodeID int

// TraceContext is the request-tracing context riding every envelope: a
// cluster-unique trace ID, the sender's current span ID (the receiver's
// parent), and the head-sampling decision.  The zero value means
// untraced and costs zero header bytes beyond the flags byte (see
// codec.go).
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// Active reports whether the context carries a sampled trace — the one
// check every instrumentation point makes before doing any trace work.
func (t TraceContext) Active() bool { return t.Sampled && t.TraceID != 0 }

// Envelope is one message in flight.
type Envelope struct {
	From, To NodeID
	// Trace is the tracing context, carried in the frame header.
	Trace TraceContext
	// Msg is the payload.  The fabric carries only WireMessage payloads
	// whose tag has a registered decoder (the cluster package registers
	// its protocol messages in init); Send fails on any other.  Send
	// encodes it before returning, and the receiver gets a freshly decoded
	// value: no message is shared between endpoints.
	Msg any
}

// Network is the fabric interface.
type Network interface {
	// Register joins an endpoint to the fabric and returns its inbox, a
	// channel of constant capacity.  While the inbox is full the fabric
	// stops reading the endpoint's connections, and senders' writer queues
	// absorb the backlog up to their byte budget.  The inbox channel is
	// closed when the endpoint leaves or the network shuts down, after the
	// envelopes already in it.  Registering an id twice is an error.
	Register(id NodeID) (<-chan Envelope, error)
	// Unregister removes an endpoint; its inbox is closed and subsequent
	// sends to it fail.
	Unregister(id NodeID) error
	// Send delivers env.Msg to env.To.  Delivery is asynchronous, reliable
	// and FIFO per (From, To) pair.  Send never blocks on slow receivers:
	// it fails instead once the pair's writer queue is over its budget.
	Send(env Envelope) error
	// Close shuts the fabric down, closing every inbox.
	Close() error
	// SetFaults attaches a nemesis fault plan (see Faults); nil means a
	// healthy fabric.
	SetFaults(f *Faults)
}
