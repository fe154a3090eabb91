package transport

import "sync"

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
	// Register joins an endpoint to the fabric and returns its inbox.  The
	// inbox channel is closed when the network shuts down.  Registering an
	// id twice is an error.
	Register(id NodeID) (<-chan Envelope, error)
	// Unregister removes an endpoint; its inbox is closed and subsequent
	// sends to it fail.
	Unregister(id NodeID) error
	// Send delivers env.Msg to env.To.  Delivery is asynchronous, reliable
	// and FIFO per (From, To) pair.  Send never blocks on slow receivers.
	Send(env Envelope) error
	// Close shuts the fabric down, closing every inbox.
	Close() error
}

// mailbox is an unbounded FIFO delivering into a channel.  Unboundedness
// removes the send-blocks-receive deadlocks a bounded actor fabric invites,
// matching the paper's reliable-cluster-network assumption.
//
// The common case — a request/response mailbox that is empty when a
// message arrives — takes a fast path: push places the envelope straight
// into the (buffered) out channel, skipping the pump goroutine and its two
// scheduler handoffs.  The fast path is taken only while the pump has
// nothing queued and nothing in flight, so FIFO order is preserved.
type mailbox struct {
	mu         sync.Mutex
	queue      []Envelope // guarded by mu
	delivering bool       // pump holds an undelivered batch outside the lock; guarded by mu
	wake       chan struct{}
	out        chan Envelope
	closed     bool // guarded by mu
}

func newMailbox() *mailbox {
	m := &mailbox{
		wake: make(chan struct{}, 1),
		out:  make(chan Envelope, 256),
	}
	go m.pump()
	return m
}

// push enqueues an envelope; returns false if the mailbox is closed.
func (m *mailbox) push(env Envelope) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	if !m.delivering && len(m.queue) == 0 {
		// Nothing ahead of this envelope: hand it to the receiver
		// directly if the channel has room.  The send happens under m.mu,
		// so pushes cannot reorder against each other, and the pump only
		// sends while delivering is set, so it cannot interleave.
		select {
		case m.out <- env:
			m.mu.Unlock()
			return true
		default:
		}
	}
	m.queue = append(m.queue, env)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return true
}

// pump moves queued envelopes to the out channel, preserving order.
func (m *mailbox) pump() {
	defer close(m.out)
	for {
		m.mu.Lock()
		for len(m.queue) == 0 {
			if m.closed {
				m.mu.Unlock()
				return
			}
			m.mu.Unlock()
			<-m.wake
			m.mu.Lock()
		}
		batch := m.queue
		m.queue = nil
		m.delivering = true
		m.mu.Unlock()
		for _, env := range batch {
			m.out <- env
		}
		m.mu.Lock()
		m.delivering = false
		m.mu.Unlock()
	}
}

// close marks the mailbox closed and wakes the pump; queued envelopes are
// still delivered before the out channel closes.
func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}
