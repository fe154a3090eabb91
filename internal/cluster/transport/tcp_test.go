package transport

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// fakeStalledPeer listens on the fabric's medium, accepts connections
// and never reads a byte from them — the failure mode of a wedged process
// whose kernel still completes handshakes.
func fakeStalledPeer(t *testing.T, tr *TCP) net.Listener {
	t.Helper()
	lis, err := tr.listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// Hold the connection open, read nothing.
		}
	}()
	return lis
}

// TestWriterQueueBudget: a peer that accepts connections but stops
// reading must not grow the sender's memory without bound.  Once the
// medium and the writer queue's byte budget fill, enqueue fails fast and
// tears the connection down.
func TestWriterQueueBudget(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			lis := fakeStalledPeer(t, tr)
			tr.budget = 128 << 10
			if _, err := tr.Register(1); err != nil {
				t.Fatal(err)
			}
			tr.mu.RLock()
			ep := tr.endpoints[1]
			tr.mu.RUnlock()
			oc := ep.connTo(2, lis.Addr().String(), tr.budget)
			if oc == nil {
				t.Fatal("connTo returned nil")
			}

			env := Envelope{From: 1, To: 2, Msg: testMsg{S: strings.Repeat("x", 8<<10)}}
			overflow := enqueueUntilError(oc, env, 4000)
			if overflow == nil {
				t.Fatal("no overflow after 32 MiB enqueued against a 128 KiB budget: writer queue is unbounded")
			}
			if !strings.Contains(overflow.Error(), "budget") {
				t.Fatalf("overflow error %q does not mention the budget", overflow)
			}
			// Teardown: the queue is dropped and the record removed from the
			// endpoint's map, so the next send redials instead of re-growing
			// it.
			oc.mu.Lock()
			if !oc.closed || oc.buf != nil {
				t.Fatalf("overflowed connection not torn down: closed=%v queued=%d bytes", oc.closed, len(oc.buf))
			}
			oc.mu.Unlock()
			ep.mu.Lock()
			_, still := ep.conns[2]
			ep.mu.Unlock()
			if still {
				t.Fatal("overflowed connection still in the endpoint's map")
			}
		})
	}
}

// enqueueUntilError enqueues env up to limit times and returns the first
// error.  Every admitted envelope must find the backlog within the budget
// plus one frame: an envelope is admitted while the bytes AHEAD of it fit
// the budget.  4000 × 8 KiB ≈ 32 MiB — far beyond the budgets tested plus
// any socket buffering, so an unbounded queue would keep growing while a
// bounded one must overflow.
func enqueueUntilError(oc *outConn, env Envelope, limit int) error {
	for i := 0; i < limit; i++ {
		if err := oc.enqueue(env); err != nil {
			return err
		}
		oc.mu.Lock()
		n := len(oc.buf)
		oc.mu.Unlock()
		if frame, _ := AppendFrame(nil, env); n > oc.budget+len(frame) {
			return fmt.Errorf("queue grew past its budget: %d bytes", n)
		}
	}
	return nil
}

// TestSendFailsFastOverBudget: the overflow surfaces from enqueue itself as
// a synchronous error — no silent drop, no blocking.  The budget bounds
// the backlog only: a single frame on an empty queue is always
// admissible, so an oversized payload can never become permanently
// unsendable.
func TestSendFailsFastOverBudget(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			lis := fakeStalledPeer(t, tr)
			tr.budget = 1024
			if _, err := tr.Register(1); err != nil {
				t.Fatal(err)
			}
			// Aim node 1's outbound connection at the non-reading peer.
			tr.mu.RLock()
			ep := tr.endpoints[1]
			tr.mu.RUnlock()
			oc := ep.connTo(2, lis.Addr().String(), tr.budget)
			big := Envelope{From: 1, To: 2, Msg: testMsg{S: strings.Repeat("y", 64<<10)}}
			if err := oc.enqueue(big); err != nil {
				t.Fatalf("single frame larger than the budget must be admissible on an empty queue, got %v", err)
			}
			// The writer may already have moved that frame into the medium,
			// leaving the queue empty again; whatever the medium absorbs,
			// a peer that reads nothing is cut off within a bounded number
			// of sends.
			err := enqueueUntilError(oc, big, 4000)
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("frames over the budget = %v, want budget error", err)
			}
			// The teardown removed the record; a fresh connection accepts
			// again.
			oc2 := ep.connTo(2, lis.Addr().String(), tr.budget)
			if oc2 == oc {
				t.Fatal("overflowed connection record was not replaced")
			}
			if err := oc2.enqueue(Envelope{From: 1, To: 2, Msg: testMsg{S: "ok"}}); err != nil {
				t.Fatalf("enqueue after teardown should start a fresh queue: %v", err)
			}
		})
	}
}

// TestSendSurfacesEncodeError: a payload the codec cannot encode must fail
// Send synchronously — an envelope that only looked sent would leave its
// RPC waiting out the full timeout — and must leave the connection and
// its queue usable.
func TestSendSurfacesEncodeError(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			in, err := tr.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Register(2); err != nil {
				t.Fatal(err)
			}
			if err := tr.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			type noCodec struct{ N int }
			err = tr.Send(Envelope{From: 2, To: 1, Msg: noCodec{N: 2}})
			if err == nil || !strings.Contains(err.Error(), "no wire codec") {
				t.Fatalf("Send of a payload without a codec = %v, want an encode error", err)
			}
			if err := tr.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 3}}); err != nil {
				t.Fatalf("send after an encode error: %v", err)
			}
			for _, want := range []int{1, 3} {
				if got := recvOne(t, in).Msg.(testMsg).Seq; got != want {
					t.Fatalf("received seq %d, want %d", got, want)
				}
			}
		})
	}
}

// TestSendFollowsReRegisteredEndpoint: an id that leaves and re-registers
// (a restarted snode) listens at a new address.  The very next envelope to
// it must travel to the new incarnation — not into the cached connection
// to the old one, reported as sent, and lost.
func TestSendFollowsReRegisteredEndpoint(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			if _, err := tr.Register(1); err != nil {
				t.Fatal(err)
			}
			in, err := tr.Register(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Send(Envelope{From: 1, To: 2, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in).Msg.(testMsg).Seq; got != 1 {
				t.Fatalf("received seq %d, want 1", got)
			}
			if err := tr.Unregister(2); err != nil {
				t.Fatal(err)
			}
			if in, err = tr.Register(2); err != nil {
				t.Fatal(err)
			}
			if err := tr.Send(Envelope{From: 1, To: 2, Msg: testMsg{Seq: 2}}); err != nil {
				t.Fatal(err)
			}
			select {
			case env := <-in:
				if got := env.Msg.(testMsg).Seq; got != 2 {
					t.Fatalf("received seq %d, want 2", got)
				}
			case <-time.After(time.Second):
				t.Fatal("first envelope after the re-registration never arrived")
			}
		})
	}
}

// TestSendFailsWhenReceiverNeverDrains: an endpoint that never reads its
// inbox holds at most inboxCap envelopes.  Its read loop then stops
// reading, the backlog builds in the sender's writer queue, and Send
// fails with the budget error instead of growing memory without bound.
func TestSendFailsWhenReceiverNeverDrains(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			tr := mk()
			defer tr.Close()
			tr.budget = 64 << 10
			in, err := tr.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Register(2); err != nil {
				t.Fatal(err)
			}
			env := Envelope{From: 2, To: 1, Msg: testMsg{S: strings.Repeat("z", 8<<10)}}
			var overflow error
			// 4000 × 8 KiB ≈ 32 MiB: far beyond the inbox, the budget and
			// any socket buffering.  Each send waits a moment for the
			// writer to take the queue, so only a receiver that stops
			// reading, not a sender outrunning it, can trip the budget.
			for i := 0; i < 4000 && overflow == nil; i++ {
				if overflow = tr.Send(env); overflow == nil {
					awaitWriterIdle(tr, 2, 1, 25*time.Millisecond)
				}
			}
			if overflow == nil || !strings.Contains(overflow.Error(), "budget") {
				t.Fatalf("Send to a receiver that never drains = %v, want the budget error", overflow)
			}
			if n := len(in); n > inboxCap {
				t.Fatalf("inbox holds %d envelopes, over its capacity %d", n, inboxCap)
			}
		})
	}
}

// awaitWriterIdle waits up to d for the writer of the from→to connection
// to take everything queued on it.
func awaitWriterIdle(tr *TCP, from, to NodeID, d time.Duration) {
	tr.mu.RLock()
	ep := tr.endpoints[from]
	tr.mu.RUnlock()
	ep.mu.Lock()
	oc := ep.conns[to]
	ep.mu.Unlock()
	if oc == nil {
		return
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(50 * time.Microsecond) {
		oc.mu.Lock()
		n := len(oc.buf)
		oc.mu.Unlock()
		if n == 0 {
			return
		}
	}
}

// TestLeaveWithReadLoopBlockedOnFullInbox: Unregister and Close return
// while a read loop is blocked on a full inbox, and the inbox still
// yields the envelopes queued in it, in order, before it closes.
func TestLeaveWithReadLoopBlockedOnFullInbox(t *testing.T) {
	leave := map[string]func(*TCP) error{
		"unregister": func(tr *TCP) error { return tr.Unregister(1) },
		"close":      (*TCP).Close,
	}
	for name, mk := range fabrics() {
		for how, do := range leave {
			t.Run(name+"/"+how, func(t *testing.T) {
				tr := mk()
				defer tr.Close()
				in, err := tr.Register(1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Register(2); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2*inboxCap; i++ {
					if err := tr.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i}}); err != nil {
						t.Fatal(err)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for len(in) < inboxCap {
					if time.Now().After(deadline) {
						t.Fatalf("inbox holds %d envelopes, never filled to %d", len(in), inboxCap)
					}
					time.Sleep(time.Millisecond)
				}
				left := make(chan error, 1)
				go func() { left <- do(tr) }()
				select {
				case err := <-left:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s blocked behind a read loop waiting on a full inbox", how)
				}
				got := 0
				for env := range in {
					if seq := env.Msg.(testMsg).Seq; seq != got {
						t.Fatalf("drained seq %d at position %d", seq, got)
					}
					got++
				}
				if got < inboxCap {
					t.Fatalf("inbox closed after %d envelopes, want at least the %d queued in it", got, inboxCap)
				}
			})
		}
	}
}
