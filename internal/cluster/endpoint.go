package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/cluster/transport"
)

// reply is implemented by every response message: the correlation id of
// the call it answers, and the responder's error text ("" on success, and
// always for responses that cannot refuse).
type reply interface {
	replyOp() uint64
	replyErr() string
}

// untraced is the explicit "no trace" argument of send and the call
// family: the trace context is a required parameter there, so dropping a
// trace is a visible choice (and the tracectx analyzer flags it next to a
// trace parameter in scope).
var untraced transport.TraceContext

// errPeerGone completes a call whose peer left the cluster (gracefully or
// by crashing) before answering.  Callers treat it like a timeout: nothing
// is known about whether the request ran.
var errPeerGone = errors.New("peer left the cluster")

// errNotSent fails a call whose build gave it up.
var errNotSent = errors.New("cluster: call given up before the send")

// remoteError is a responder's refusal (the reply's Err text) — the one
// call failure that proves the request was seen and not carried out.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// pendingCall is one call awaiting its reply.  The channel has capacity 1
// and is only ever sent to without blocking, so the first completion
// (reply or peer departure) wins and later ones are dropped.
type pendingCall struct {
	ch   chan reply // a nil reply means the peer left
	peer transport.NodeID
}

// endpoint is one fabric address's request/response path, embedded by
// Snode and Cluster: the only place calls are registered, sent, awaited
// and completed.  A call ends with its reply, its deadline, the owner
// stopping, or its peer leaving the cluster.
type endpoint struct {
	id      transport.NodeID
	net     transport.Network
	timeout time.Duration // Config.RPCTimeout
	stopCh  chan struct{} // closed by the owner when it stops

	pendMu  sync.Mutex
	pending map[uint64]pendingCall // guarded by pendMu
	opSeq   atomic.Uint64

	// ord serializes replica-plane sends per destination, so a full sync
	// and the writes racing it reach a replica in an order consistent with
	// the primary's apply order (see syncReplica).
	ordMu sync.Mutex
	ord   map[transport.NodeID]*sync.Mutex // guarded by ordMu
}

func newEndpoint(id transport.NodeID, net transport.Network, timeout time.Duration) endpoint {
	return endpoint{
		id: id, net: net, timeout: timeout, stopCh: make(chan struct{}),
		pending: make(map[uint64]pendingCall),
		ord:     make(map[transport.NodeID]*sync.Mutex),
	}
}

// who names the endpoint in error texts.
func (e *endpoint) who() string {
	if e.id == clientID {
		return "client"
	}
	return fmt.Sprintf("snode %d", e.id)
}

// send fires a reply or a fire-and-forget message; requests go through
// call.  An error means the destination left the fabric, which callers
// that care learn through their call failing.  The parameter type keeps a
// message without a wire codec — the other error Send can return — from
// compiling.
func (e *endpoint) send(to transport.NodeID, tr transport.TraceContext, msg transport.WireMessage) {
	_ = e.net.Send(transport.Envelope{From: e.id, To: to, Trace: tr, Msg: msg})
}

// ordFor returns the mutex serializing ordered sends to one destination.
func (e *endpoint) ordFor(to transport.NodeID) *sync.Mutex {
	e.ordMu.Lock()
	defer e.ordMu.Unlock()
	mu, ok := e.ord[to]
	if !ok {
		mu = &sync.Mutex{}
		e.ord[to] = mu
	}
	return mu
}

// call sends the request build returns for a fresh correlation id and
// waits for its reply.  timeout 0 means the configured RPC timeout;
// callers that retry on their own pass a shorter one.  A non-nil ord is
// held around build and the send only — never the wait — so whatever
// build reads is on the wire before anything a later holder of ord reads.
// build may return nil to give the call up unsent.
func (e *endpoint) call(to transport.NodeID, tr transport.TraceContext, timeout time.Duration, ord *sync.Mutex, build func(op uint64) transport.WireMessage) (reply, error) {
	op := e.opSeq.Add(1)
	ch := make(chan reply, 1)
	e.pendMu.Lock()
	e.pending[op] = pendingCall{ch: ch, peer: to}
	e.pendMu.Unlock()
	defer func() {
		e.pendMu.Lock()
		delete(e.pending, op)
		e.pendMu.Unlock()
	}()
	if ord != nil {
		ord.Lock()
	}
	err := errNotSent
	if msg := build(op); msg != nil {
		err = e.net.Send(transport.Envelope{From: e.id, To: to, Trace: tr, Msg: msg})
	}
	if ord != nil {
		ord.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if timeout == 0 {
		timeout = e.timeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r == nil {
			return nil, fmt.Errorf("cluster: %s: rpc to %d failed: %w", e.who(), to, errPeerGone)
		}
		return r, nil
	case <-timer.C:
		return nil, fmt.Errorf("cluster: %s: rpc to %d timed out", e.who(), to)
	case <-e.stopCh:
		return nil, fmt.Errorf("cluster: %s stopping", e.who())
	}
}

// deliver hands a reply to the call awaiting it; a reply nobody awaits
// any more (its call timed out or was already completed) is dropped.
func (e *endpoint) deliver(r reply) {
	e.pendMu.Lock()
	pc, ok := e.pending[r.replyOp()]
	e.pendMu.Unlock()
	if ok {
		select {
		case pc.ch <- r:
		default:
		}
	}
}

// failPeer completes every call parked on a departed peer with
// errPeerGone.  A reply already handed over is kept.
func (e *endpoint) failPeer(id transport.NodeID) {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	for _, pc := range e.pending {
		if pc.peer == id {
			select {
			case pc.ch <- nil:
			default:
			}
		}
	}
}

// replyAs checks a call's outcome against the response type the caller
// expects: a reply of another type under a matching op is an error, and
// so is a reply carrying the responder's refusal.
func replyAs[R reply](r reply, err error) (R, error) {
	var zero R
	if err != nil {
		return zero, err
	}
	typed, ok := r.(R)
	if !ok {
		return zero, fmt.Errorf("cluster: unexpected reply %T, want %T", r, zero)
	}
	if msg := typed.replyErr(); msg != "" {
		return zero, remoteError(msg)
	}
	return typed, nil
}

// ask is the typed call: one request to one peer under the configured
// timeout, answered by an R.
func ask[R reply](e *endpoint, to transport.NodeID, tr transport.TraceContext, build func(op uint64) transport.WireMessage) (R, error) {
	return replyAs[R](e.call(to, tr, 0, nil, build))
}

// redirect is a reply that may send its caller elsewhere: a non-zero
// next names the host to ask instead (snode ids start at 1).
type redirect interface {
	reply
	next() transport.NodeID
}

// hopLimit is nil while a request that has taken hop asks may be asked
// again, and the error that ends it once maxHops asks went unanswered.
// It bounds a chase and each batch item's way to its owner alike.
func hopLimit(hop int) error {
	if hop < maxHops {
		return nil
	}
	return fmt.Errorf("no answer within %d hops", maxHops)
}

// chase asks via.next(), then each host a reply redirects to, until a
// reply that is not a redirect — at most maxHops asks.  Every hop is a
// call of its own, aimed at the host that answers it, so a departed hop
// fails that hop at once.  A redirect back to the host asked just before
// is followed once (custody may have moved meanwhile); a second such
// bounce ends the chase with custodyCycle.  build makes each hop's
// request from the redirect that aimed it; timeout is call's.
func chase[R redirect](e *endpoint, timeout time.Duration, via R, build func(op uint64, via R) transport.WireMessage) (R, error) {
	var zero R
	prev, bounced := transport.NodeID(0), false
	for hop := 0; ; hop++ {
		if err := hopLimit(hop); err != nil {
			return zero, fmt.Errorf("cluster: %s: %w", e.who(), err)
		}
		host := via.next()
		r, err := replyAs[R](e.call(host, untraced, timeout, nil, func(op uint64) transport.WireMessage {
			return build(op, via)
		}))
		if err != nil || r.next() == 0 {
			return r, err
		}
		if r.next() == prev {
			if bounced {
				return zero, fmt.Errorf("cluster: %s: %s", e.who(), custodyCycle(prev, host))
			}
			bounced = true
		}
		prev, via = host, r
	}
}

// custodyCycle is the error of a request two snodes keep redirecting to
// each other.
func custodyCycle(a, b transport.NodeID) string {
	return fmt.Sprintf("custody cycle between snodes %d and %d", a, b)
}

// askOrdered is ask on the replica plane: build and the send run under
// the destination's ordering mutex.
func askOrdered[R reply](e *endpoint, to transport.NodeID, tr transport.TraceContext, build func(op uint64) transport.WireMessage) (R, error) {
	return replyAs[R](e.call(to, tr, 0, e.ordFor(to), build))
}

// fanOut runs part(0) … part(n-1) concurrently and returns their errors,
// in part order, once every part has returned.
func fanOut(n int, part func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			errs[i] = part(i)
		}()
	}
	wg.Wait()
	return errs
}

// firstErr is the first non-nil error of errs, in order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
