package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// TCP is the message fabric: every envelope travels as one length-prefixed
// frame (see codec.go) over a connection of its ordered (From, To) pair.
// The medium is the constructor's choice — NewTCP listens and dials TCP
// sockets, NewMem in-process pipes — and everything above it, from the
// codec to fault injection, is the same code.  Each endpoint listens at
// its own address; the fabric object doubles as the address registry (on
// a physical cluster this registry is the deployment's static node list —
// the paper's model assumes cluster membership is known, §5).
//
// One connection per ordered (From, To) pair preserves the FIFO-per-pair
// guarantee Network requires.  Each outbound connection is drained by a
// dedicated writer goroutine fed from a byte-budgeted queue: senders
// encode and enqueue without blocking (Send never waits on a slow peer),
// the writer dials outside any endpoint-wide lock and flushes only when
// the queue runs dry — many envelopes per syscall under load, prompt
// delivery when idle.  A peer that accepts a connection but stops
// reading cannot grow process memory without bound: once the queue
// exceeds its budget the envelope is dropped, Send fails, and the
// connection is torn down (the next send redials — a recovered peer
// resumes service, a stalled one keeps failing fast).
type TCP struct {
	listen    func() (net.Listener, error) // opens an endpoint's listener at a fresh address
	dial      func(addr string) (net.Conn, error)
	mu        sync.RWMutex
	endpoints map[NodeID]*tcpEndpoint // guarded by mu
	budget    int                     // writer-queue byte budget; fixed before the first Register
	faults    *Faults                 // nemesis plan, nil = healthy; guarded by mu
	closed    bool                    // guarded by mu
}

// DefaultWriterBudget bounds the bytes queued on one outbound connection
// awaiting its writer.  Generous — a healthy reader drains far faster
// than this — so hitting it means the peer has genuinely stalled.
const DefaultWriterBudget = 64 << 20

// inboxCap is the capacity of every endpoint's inbox.  A read loop that
// finds the inbox full stops reading its connection until the endpoint
// drains; the backlog then builds in the sender's writer queue, whose
// byte budget refuses further sends.  256 lets a burst of replies to a
// wide fan-out land without stalling the readers, while a stalled
// endpoint hands its backlog to the byte-budgeted writers quickly.
const inboxCap = 256

type tcpEndpoint struct {
	id   NodeID
	lis  net.Listener
	addr string // lis.Addr(), spelled once: senders compare it on every Send
	dial func(addr string) (net.Conn, error)
	// inbox is fed by the read loops alone.  Once the endpoint is closed,
	// whichever of close and the last read loop finds inbnd empty closes
	// it, so no read loop ever sends on a closed channel.
	inbox  chan Envelope
	done   chan struct{} // closed by close: read loops blocked on a full inbox give up
	mu     sync.Mutex
	conns  map[NodeID]*outConn   // ordered-pair outbound connections; guarded by mu
	inbnd  map[net.Conn]struct{} // accepted connections, one per running read loop; guarded by mu
	faults *Faults               // nemesis plan, nil = healthy; guarded by mu
	closed bool                  // guarded by mu
}

// outConn is one outbound ordered-pair connection.  Senders encode their
// envelope straight into the pending slab under the connection lock —
// the byte budget is simply the slab's length — and the writer goroutine
// swaps the slab against a recycled spare and writes it out in one pass:
// no per-envelope allocation, one buffer copy, many envelopes per
// syscall.  The writer owns the net.Conn lifecycle: it dials, drains,
// coalesces flushes, and on any error removes the connection so the next
// send redials.  The slab it currently writes was itself within budget,
// so buffered memory per connection stays under two budgets.
type outConn struct {
	ep     *tcpEndpoint
	to     NodeID
	addr   string
	budget int

	mu     sync.Mutex
	buf    []byte   // pending frames, appended by senders; guarded by mu
	spare  []byte   // recycled slab, swapped in by the writer; guarded by mu
	closed bool     // guarded by mu
	c      net.Conn // set by the writer once dialed; guarded by mu
	wake   chan struct{}
}

// NewTCP returns a fabric over TCP sockets on the given host (usually
// "127.0.0.1"); each registered endpoint listens on its own ephemeral
// port.
func NewTCP(host string) *TCP {
	return newFabric(
		func() (net.Listener, error) { return net.Listen("tcp", host+":0") },
		func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
}

func newFabric(listen func() (net.Listener, error), dial func(string) (net.Conn, error)) *TCP {
	return &TCP{listen: listen, dial: dial, endpoints: make(map[NodeID]*tcpEndpoint), budget: DefaultWriterBudget}
}

// SetFaults attaches a nemesis fault plan.  Faults are applied on the
// receive side, after a frame is decoded and before it is delivered, so
// injected drops can never corrupt the framing of the stream they ride.
// Attach before the fabric carries traffic (connections read the plan
// when they are accepted); the plan's rules may then change live.
func (t *TCP) SetFaults(f *Faults) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = f
	for _, ep := range t.endpoints {
		ep.mu.Lock()
		ep.faults = f
		ep.mu.Unlock()
	}
}

// Register implements Network: it starts a listener and accept loop for the
// endpoint.
func (t *TCP) Register(id NodeID) (<-chan Envelope, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("transport: network closed")
	}
	if _, dup := t.endpoints[id]; dup {
		return nil, fmt.Errorf("transport: node %d already registered", id)
	}
	lis, err := t.listen()
	if err != nil {
		return nil, fmt.Errorf("transport: listen for node %d: %w", id, err)
	}
	ep := &tcpEndpoint{
		id:     id,
		lis:    lis,
		addr:   lis.Addr().String(),
		dial:   t.dial,
		inbox:  make(chan Envelope, inboxCap),
		done:   make(chan struct{}),
		faults: t.faults,
		conns:  make(map[NodeID]*outConn),
		inbnd:  make(map[net.Conn]struct{}),
	}
	go ep.acceptLoop()
	t.endpoints[id] = ep
	return ep.inbox, nil
}

func (ep *tcpEndpoint) acceptLoop() {
	for {
		conn, err := ep.lis.Accept()
		if err != nil {
			return // listener closed
		}
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.inbnd[conn] = struct{}{}
		ep.mu.Unlock()
		go ep.readLoop(conn)
	}
}

// frameBufPool holds the read-side frame buffers: one per active read
// loop, grown to the largest frame seen and reused for every subsequent
// frame (DecodeFrame copies what messages keep).
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4096)
		return &b
	},
}

func (ep *tcpEndpoint) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.inbnd, conn)
		if ep.closed && len(ep.inbnd) == 0 {
			close(ep.inbox)
		}
		ep.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	ep.mu.Lock()
	faults := ep.faults
	ep.mu.Unlock()
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n < minFrameBody || n > maxFrame {
			log.Printf("transport: node %d: dropping connection: frame body of %d bytes out of range", ep.id, n)
			return
		}
		if cap(*bufp) < int(n) {
			*bufp = make([]byte, n)
		}
		body := (*bufp)[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		env, err := DecodeFrame(body)
		if err != nil {
			// Fail loudly: a mixed-version peer or corrupt stream must
			// surface in logs, not vanish as a silent disconnect.
			log.Printf("transport: node %d: dropping connection: %v", ep.id, err)
			return
		}
		if v := faults.judge(env.From, ep.id); v.drop {
			// Injected loss: the whole decoded message vanishes; the
			// byte stream underneath stays intact.
			continue
		} else if v.delay > 0 {
			// One-way link delay: this connection IS the ordered
			// (From, ep.id) pair, so sleeping here slows only this link
			// and preserves its FIFO order.
			time.Sleep(v.delay)
		}
		select {
		case ep.inbox <- env:
		case <-ep.done:
			return
		}
	}
}

// Unregister implements Network.
func (t *TCP) Unregister(id NodeID) error {
	t.mu.Lock()
	ep, ok := t.endpoints[id]
	if ok {
		delete(t.endpoints, id)
	}
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("transport: node %d not registered", id)
	}
	ep.close()
	return nil
}

// close takes the endpoint off the network.  The accepted connections are
// closed too: a peer that still holds one must see its next write fail and
// redial whoever owns the id now, not feed a dead endpoint's read loop.
func (ep *tcpEndpoint) close() {
	ep.lis.Close()
	ep.mu.Lock()
	ep.closed = true
	conns := ep.conns
	ep.conns = make(map[NodeID]*outConn)
	inbnd := make([]net.Conn, 0, len(ep.inbnd))
	for conn := range ep.inbnd {
		inbnd = append(inbnd, conn)
	}
	if len(inbnd) == 0 {
		close(ep.inbox)
	}
	ep.mu.Unlock()
	close(ep.done)
	for _, oc := range conns {
		oc.shut()
	}
	for _, conn := range inbnd {
		conn.Close()
	}
}

// errConnClosed reports an enqueue on a connection record that shut down
// under a concurrent writer error; the caller re-resolves and redials.
var errConnClosed = errors.New("transport: connection closed")

// Send implements Network: the envelope is encoded by the sender and
// enqueued on its per-destination connection within the queue's byte
// budget.  Send fails synchronously when either endpoint is off the
// fabric, the envelope cannot be encoded (no wire codec, or a frame over
// maxFrame) or the destination's writer queue is over budget (stalled
// peer); transmission itself is asynchronous (a connection that later
// breaks surfaces as RPC timeouts, and the next send redials).
func (t *TCP) Send(env Envelope) error {
	t.mu.RLock()
	src, okSrc := t.endpoints[env.From]
	dst, okDst := t.endpoints[env.To]
	t.mu.RUnlock()
	if !okDst {
		return fmt.Errorf("transport: destination %d not registered", env.To)
	}
	if !okSrc {
		return fmt.Errorf("transport: sender %d not registered", env.From)
	}
	oc := src.connTo(env.To, dst.addr, t.budget)
	if oc == nil {
		return fmt.Errorf("transport: sender %d shutting down", env.From)
	}
	if err := oc.enqueue(env); err != nil {
		if err != errConnClosed {
			return err // unencodable or over budget: fail fast, no retry
		}
		// The connection failed under a concurrent writer error; fail()
		// already removed it from the endpoint's map, so re-resolving
		// yields a fresh record whose writer redials.
		oc = src.connTo(env.To, dst.addr, t.budget)
		if oc == nil {
			return fmt.Errorf("transport: sender %d shutting down", env.From)
		}
		if err := oc.enqueue(env); err != nil {
			return fmt.Errorf("transport: send %d→%d: connection unavailable", env.From, env.To)
		}
	}
	return nil
}

// connTo finds or creates the outbound connection record for a
// destination; a new record gets the given writer-queue budget.  No I/O
// happens under ep.mu: the writer goroutine dials, so a slow or
// unreachable peer never blocks sends to other peers.
func (ep *tcpEndpoint) connTo(to NodeID, addr string, budget int) *outConn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil
	}
	if oc, ok := ep.conns[to]; ok {
		if oc.addr == addr {
			return oc
		}
		// The id re-registered at another address (a restarted snode): the
		// cached connection leads to the old incarnation's socket, where
		// frames would be accepted as sent and then lost.
		oc.shut()
	}
	oc := &outConn{ep: ep, to: to, addr: addr, budget: budget, wake: make(chan struct{}, 1)}
	ep.conns[to] = oc
	go oc.writeLoop()
	return oc
}

// enqueue encodes the envelope into the pending slab, within the byte
// budget.  The budget bounds the BACKLOG: an envelope is refused only
// when frames are already queued ahead of it — a single frame is always
// admissible on an empty queue (it is bounded by maxFrame anyway), so an
// oversized payload, e.g. a whole-bucket replica sync, can never become
// permanently unsendable.  errConnClosed means the record shut down (the
// caller re-resolves and redials); an encode error is returned with the
// queue and the connection untouched, so the sender's RPC fails at once
// instead of waiting out its timeout; a budget overflow drops the
// envelope, tears the stalled connection down and returns a descriptive
// error.
func (oc *outConn) enqueue(env Envelope) error {
	oc.mu.Lock()
	if oc.closed {
		oc.mu.Unlock()
		return errConnClosed
	}
	start := len(oc.buf)
	buf, err := AppendFrame(oc.buf, env)
	if err != nil {
		oc.mu.Unlock()
		return fmt.Errorf("transport: send %d→%d: %w", env.From, env.To, err)
	}
	if start > oc.budget {
		// The backlog already queued AHEAD of this envelope exceeds the
		// budget — the writer is not draining (a peer that accepted the dial
		// but stopped reading), so the envelope is dropped and the
		// connection torn down.  Judging the pre-existing backlog rather
		// than the total keeps one admitted oversized frame from
		// condemning the connection while the writer is still busy
		// pushing it out; buffered memory stays bounded by the budget
		// plus one frame (maxFrame) plus the writer's in-flight slab.
		oc.buf = buf[:start]
		oc.mu.Unlock()
		oc.fail()
		return fmt.Errorf("transport: send %d→%d: writer queue over its %d-byte budget (peer not reading); envelope dropped, connection torn down",
			env.From, env.To, oc.budget)
	}
	oc.buf = buf
	oc.mu.Unlock()
	select {
	case oc.wake <- struct{}{}:
	default:
	}
	return nil
}

// shut marks the connection closed and unblocks its writer.
func (oc *outConn) shut() {
	oc.mu.Lock()
	oc.closed = true
	oc.buf = nil
	oc.spare = nil
	c := oc.c
	oc.mu.Unlock()
	select {
	case oc.wake <- struct{}{}:
	default:
	}
	if c != nil {
		c.Close()
	}
}

// fail tears the connection down after an I/O error: queued envelopes are
// dropped (the fabric's reliability model treats a broken peer as gone;
// in-flight RPCs surface it as timeouts) and the record is removed so the
// next send redials.
func (oc *outConn) fail() {
	oc.mu.Lock()
	oc.closed = true
	oc.buf = nil
	oc.spare = nil
	c := oc.c
	oc.mu.Unlock()
	if c != nil {
		c.Close()
	}
	oc.ep.mu.Lock()
	if oc.ep.conns[oc.to] == oc {
		delete(oc.ep.conns, oc.to)
	}
	oc.ep.mu.Unlock()
}

// writeLoop owns the connection: dial, then drain the queue forever,
// copying each pre-encoded frame into the buffered writer and flushing
// only when the queue runs dry — consecutive envelopes coalesce into one
// syscall.
func (oc *outConn) writeLoop() {
	c, err := oc.ep.dial(oc.addr)
	if err != nil {
		oc.fail()
		return
	}
	oc.mu.Lock()
	if oc.closed {
		oc.mu.Unlock()
		c.Close()
		return
	}
	oc.c = c
	oc.mu.Unlock()
	bw := bufio.NewWriterSize(c, 64<<10)
	// maxRecycledSlab caps the capacity a slab may keep when recycled: one
	// burst near the budget must not pin tens of MB per connection for its
	// lifetime — an oversized slab is released to the GC and steady-state
	// traffic re-grows a small one.
	const maxRecycledSlab = 1 << 20
	var prev []byte // last written slab, recycled on the next lock pass
	for {
		oc.mu.Lock()
		if prev != nil {
			if oc.spare == nil && !oc.closed && cap(prev) <= maxRecycledSlab {
				oc.spare = prev[:0]
			}
			prev = nil
		}
		for len(oc.buf) == 0 {
			closed := oc.closed
			oc.mu.Unlock()
			// Queue dry: push buffered frames out before sleeping.
			if err := bw.Flush(); err != nil {
				oc.fail()
				return
			}
			if closed {
				c.Close()
				return
			}
			<-oc.wake
			oc.mu.Lock()
		}
		// Swap the pending slab against the recycled spare: senders keep
		// appending while this batch drains, and the two slabs ping-pong
		// so steady-state traffic allocates nothing.
		batch := oc.buf
		oc.buf = oc.spare[:0]
		oc.spare = nil
		oc.mu.Unlock()
		if _, err := bw.Write(batch); err != nil {
			oc.fail()
			return
		}
		prev = batch
	}
}

// Close implements Network.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	eps := t.endpoints
	t.endpoints = make(map[NodeID]*tcpEndpoint)
	t.mu.Unlock()
	for _, ep := range eps {
		ep.close()
	}
	return nil
}
