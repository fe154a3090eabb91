package transport

import (
	"net"
	"strings"
	"testing"
	"time"
)

// fakeStalledPeer accepts TCP connections and never reads a byte from
// them — the failure mode of a wedged process whose kernel still
// completes handshakes.
func fakeStalledPeer(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
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

// TestWriterQueueBudget: a peer that accepts TCP but stops reading must
// not grow the sender's memory without bound.  Once the socket and the
// writer queue's byte budget fill, enqueue fails fast and tears the
// connection down.
func TestWriterQueueBudget(t *testing.T) {
	lis := fakeStalledPeer(t)
	tr := NewTCP("127.0.0.1")
	defer tr.Close()
	tr.SetWriterBudget(128 << 10)
	if _, err := tr.Register(1); err != nil {
		t.Fatal(err)
	}
	tr.mu.RLock()
	ep := tr.endpoints[1]
	tr.mu.RUnlock()
	oc := ep.connTo(2, lis.Addr().String())
	if oc == nil {
		t.Fatal("connTo returned nil")
	}

	env := Envelope{From: 1, To: 2, Msg: testMsg{S: strings.Repeat("x", 8<<10)}}
	// 4000 × 8 KiB ≈ 32 MiB — far beyond the 128 KiB budget plus any
	// kernel socket buffering, so an unbounded queue would keep growing
	// while a bounded one must overflow.
	var overflow error
	for i := 0; i < 4000; i++ {
		if err := oc.enqueue(env); err != nil {
			overflow = err
			break
		}
		oc.mu.Lock()
		// The backlog is bounded by the budget plus one frame: an
		// envelope is admitted while the bytes AHEAD of it fit the
		// budget.
		if len(oc.buf) > 128<<10+16<<10 {
			oc.mu.Unlock()
			t.Fatalf("queue grew past its budget: %d bytes", len(oc.buf))
		}
		oc.mu.Unlock()
	}
	if overflow == nil {
		t.Fatal("no overflow after 32 MiB enqueued against a 128 KiB budget: writer queue is unbounded")
	}
	if !strings.Contains(overflow.Error(), "budget") {
		t.Fatalf("overflow error %q does not mention the budget", overflow)
	}
	// Teardown: the queue is dropped and the record removed from the
	// endpoint's map, so the next send redials instead of re-growing it.
	oc.mu.Lock()
	if !oc.closed || oc.buf != nil {
		t.Fatalf("overflowed connection not torn down: closed=%v queued=%d bytes", oc.closed, len(oc.buf))
	}
	oc.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep.mu.Lock()
		_, still := ep.conns[2]
		ep.mu.Unlock()
		if !still {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overflowed connection still in the endpoint's map")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSendFailsFastOverBudget: the overflow surfaces from Send itself as
// a synchronous error — no silent drop, no blocking.  The budget bounds
// the backlog only: a single frame on an empty queue is always
// admissible, so an oversized payload can never become permanently
// unsendable.
func TestSendFailsFastOverBudget(t *testing.T) {
	lis := fakeStalledPeer(t)
	tr := NewTCP("127.0.0.1")
	defer tr.Close()
	tr.SetWriterBudget(1024)
	if _, err := tr.Register(1); err != nil {
		t.Fatal(err)
	}
	// Aim node 1's outbound connection at the non-reading peer so the
	// queued frame cannot drain between the two sends.
	tr.mu.RLock()
	ep := tr.endpoints[1]
	tr.mu.RUnlock()
	oc := ep.connTo(2, lis.Addr().String())
	big := Envelope{From: 1, To: 2, Msg: testMsg{S: strings.Repeat("y", 64<<10)}}
	if err := oc.enqueue(big); err != nil {
		t.Fatalf("single frame larger than the budget must be admissible on an empty queue, got %v", err)
	}
	err := oc.enqueue(big)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("second frame over the budget = %v, want budget error", err)
	}
	// The teardown removed the record; a fresh connection accepts again.
	oc2 := ep.connTo(2, lis.Addr().String())
	if oc2 == oc {
		t.Fatal("overflowed connection record was not replaced")
	}
	if err := oc2.enqueue(Envelope{From: 1, To: 2, Msg: testMsg{S: "ok"}}); err != nil {
		t.Fatalf("enqueue after teardown should start a fresh queue: %v", err)
	}
}

// TestSendSurfacesEncodeError: a payload the codec cannot encode must fail
// Send synchronously — an envelope that only looked sent would leave its
// RPC waiting out the full timeout — and must leave the connection and
// its queue usable.
func TestSendSurfacesEncodeError(t *testing.T) {
	tr := NewTCP("127.0.0.1")
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
}

// TestSendFollowsReRegisteredEndpoint: an id that leaves and re-registers
// (a restarted snode) listens on a new port.  The very next envelope to it
// must travel to the new incarnation — at the parent it was written into
// the cached connection to the old one, reported as sent, and lost.
func TestSendFollowsReRegisteredEndpoint(t *testing.T) {
	tr := NewTCP("127.0.0.1")
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
}
