package transport

import (
	"fmt"
	"sync"
	"time"
)

// NodeID identifies an endpoint on the fabric: a cluster node hosting an
// snode, or a client endpoint.
type NodeID int

// TraceContext is the request-tracing context riding every envelope: a
// cluster-unique trace ID, the sender's current span ID (the receiver's
// parent), and the head-sampling decision.  The zero value means
// untraced; on the TCP fabric a zero context costs zero header bytes
// beyond the flags byte (see codec.go).
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
	// Trace is the tracing context, propagated by value on the in-memory
	// fabric and in the frame header on TCP.
	Trace TraceContext
	// Msg is the payload.  The TCP fabric carries only WireMessage
	// payloads whose tag has a registered decoder (the cluster package
	// registers its protocol messages in init); Send fails on any other.
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

// Mem is the in-memory fabric.
type Mem struct {
	mu     sync.RWMutex
	boxes  map[NodeID]*mailbox      // guarded by mu
	faults *Faults                  // nemesis plan, nil = healthy; guarded by mu
	lines  map[faultLink]*delayLine // per-link delay queues; guarded by mu
	closed bool                     // guarded by mu
}

// NewMem returns an empty in-memory fabric with zero message latency; a
// Faults plan (SetFaults, Faults.SetLinkDelay) adds per-link delay.
func NewMem() *Mem {
	return &Mem{boxes: make(map[NodeID]*mailbox)}
}

// SetFaults attaches a nemesis fault plan to the fabric.  Attach before
// the fabric carries traffic; the plan's rules may then change live
// (Partition, SetLinkDelay, Heal, ...).
func (n *Mem) SetFaults(f *Faults) {
	n.mu.Lock()
	n.faults = f
	n.mu.Unlock()
}

// Register implements Network.
func (n *Mem) Register(id NodeID) (<-chan Envelope, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, dup := n.boxes[id]; dup {
		return nil, fmt.Errorf("transport: node %d already registered", id)
	}
	mb := newMailbox()
	n.boxes[id] = mb
	return mb.out, nil
}

// Unregister implements Network.
func (n *Mem) Unregister(id NodeID) error {
	n.mu.Lock()
	mb, ok := n.boxes[id]
	if ok {
		delete(n.boxes, id)
	}
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: node %d not registered", id)
	}
	mb.close()
	return nil
}

// Send implements Network.
func (n *Mem) Send(env Envelope) error {
	n.mu.RLock()
	mb, ok := n.boxes[env.To]
	f := n.faults
	n.mu.RUnlock()
	if !ok {
		return fmt.Errorf("transport: destination %d not registered", env.To)
	}
	if f != nil {
		v := f.judge(env.From, env.To)
		if v.drop {
			// The fabric ate it: the sender sees success, like a lost
			// datagram; in-flight RPCs surface the loss as timeouts.
			return nil
		}
		if v.delay > 0 || n.linePending(env.From, env.To) {
			// Delayed links ride a per-link FIFO queue; once the queue
			// drains after a heal, sends bypass it again.
			n.lineFor(env.From, env.To).push(env, time.Now().Add(v.delay))
			return nil
		}
	}
	if !mb.push(env) {
		return fmt.Errorf("transport: destination %d shutting down", env.To)
	}
	return nil
}

// linePending reports whether the link's delay line (if any) still holds
// undelivered envelopes, in which case new sends must queue behind them
// to preserve the link's FIFO order.
func (n *Mem) linePending(from, to NodeID) bool {
	n.mu.RLock()
	l := n.lines[faultLink{from, to}]
	n.mu.RUnlock()
	return l != nil && l.pending()
}

// lineFor returns the link's delay line, creating it on first use.  The
// line resolves the destination mailbox at delivery time, so an endpoint
// that unregisters mid-delay just drops the late envelopes.
func (n *Mem) lineFor(from, to NodeID) *delayLine {
	k := faultLink{from, to}
	n.mu.RLock()
	l := n.lines[k]
	n.mu.RUnlock()
	if l != nil {
		return l
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l = n.lines[k]; l != nil {
		return l
	}
	if n.lines == nil {
		n.lines = make(map[faultLink]*delayLine)
	}
	l = newDelayLine(func(env Envelope) {
		n.mu.RLock()
		mb, ok := n.boxes[env.To]
		n.mu.RUnlock()
		if ok {
			mb.push(env)
		}
	})
	n.lines[k] = l
	return l
}

// Close implements Network.
func (n *Mem) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	boxes := n.boxes
	n.boxes = make(map[NodeID]*mailbox)
	lines := n.lines
	n.lines = nil
	n.mu.Unlock()
	for _, l := range lines {
		l.close()
	}
	for _, mb := range boxes {
		mb.close()
	}
	return nil
}
