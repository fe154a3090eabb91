package transport

import (
	"sync"
	"testing"
	"time"
)

type testMsg struct {
	Seq int
	S   string
	B   []byte
}

const testTag uint16 = 0x7e59

func (m testMsg) WireTag() uint16 { return testTag }

func (m testMsg) AppendWire(buf []byte) []byte {
	buf = AppendVarint(buf, int64(m.Seq))
	buf = AppendString(buf, m.S)
	return AppendBytes(buf, m.B)
}

func init() {
	RegisterWire(testTag, func(r *WireReader) (any, error) {
		var m testMsg
		m.Seq = int(r.Varint())
		m.S = r.String()
		m.B = r.Bytes()
		return m, r.Err()
	})
}

// fabrics under test, by medium.
func fabrics() map[string]func() *TCP {
	return map[string]func() *TCP{
		"mem": NewMem,
		"tcp": func() *TCP { return NewTCP("127.0.0.1") },
	}
}

func recvOne(t *testing.T, ch <-chan Envelope) Envelope {
	t.Helper()
	select {
	case env, ok := <-ch:
		if !ok {
			t.Fatal("inbox closed unexpectedly")
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

func TestSendReceive(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 7, S: "hi"}}); err != nil {
				t.Fatal(err)
			}
			env := recvOne(t, in1)
			got, ok := env.Msg.(testMsg)
			if !ok || got.Seq != 7 || got.S != "hi" || env.From != 2 || env.To != 1 {
				t.Fatalf("got %+v", env)
			}
		})
	}
}

func TestFIFOPerPair(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			const count = 500
			for i := 0; i < count; i++ {
				if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < count; i++ {
				env := recvOne(t, in)
				if got := env.Msg.(testMsg).Seq; got != i {
					t.Fatalf("out of order: got %d at position %d", got, i)
				}
			}
		})
	}
}

func TestManySendersNoLoss(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(0)
			if err != nil {
				t.Fatal(err)
			}
			const senders, each = 8, 200
			for s := 1; s <= senders; s++ {
				if _, err := n.Register(NodeID(s)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for s := 1; s <= senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := n.Send(Envelope{From: NodeID(s), To: 0, Msg: testMsg{Seq: i}}); err != nil {
							t.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			seen := make(map[NodeID]int)
			for i := 0; i < senders*each; i++ {
				env := recvOne(t, in)
				seq := env.Msg.(testMsg).Seq
				if seq != seen[env.From] {
					t.Fatalf("sender %d: got seq %d, want %d (per-pair FIFO)", env.From, seq, seen[env.From])
				}
				seen[env.From]++
			}
		})
	}
}

func TestSendToUnknown(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Register(1); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 1, To: 99, Msg: testMsg{}}); err == nil {
				t.Fatal("send to unregistered node must fail")
			}
		})
	}
}

func TestDuplicateRegister(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Register(1); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(1); err == nil {
				t.Fatal("duplicate register must fail")
			}
		})
	}
}

func TestUnregisterClosesInbox(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Unregister(1); err != nil {
				t.Fatal(err)
			}
			select {
			case _, ok := <-in:
				if ok {
					t.Fatal("expected closed inbox")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("inbox did not close")
			}
			if err := n.Unregister(1); err == nil {
				t.Fatal("double unregister must fail")
			}
		})
	}
}

func TestCloseClosesAllInboxes(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			var ins []<-chan Envelope
			for i := 0; i < 4; i++ {
				in, err := n.Register(NodeID(i))
				if err != nil {
					t.Fatal(err)
				}
				ins = append(ins, in)
			}
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			for i, in := range ins {
				select {
				case _, ok := <-in:
					if ok {
						t.Fatalf("inbox %d delivered after close", i)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("inbox %d did not close", i)
				}
			}
			if _, err := n.Register(9); err == nil {
				t.Fatal("register after close must fail")
			}
			if err := n.Close(); err != nil {
				t.Fatal("double close must be a no-op")
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 1, To: 1, Msg: testMsg{Seq: 42}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in).Msg.(testMsg).Seq; got != 42 {
				t.Fatalf("self-send got %d", got)
			}
		})
	}
}

// TestSendNeverBlocksOnIdleReceiver: while the receiver is not draining,
// Send still returns at once (the actor runtime's deadlock freedom) and
// per-pair FIFO holds.  The inbox fills and its read loop stops reading;
// the backlog, well under the writer budget, waits in the sender's
// writer queue.
func TestSendNeverBlocksOnIdleReceiver(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 100000; i++ {
					if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i}}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Send blocked on a receiver that is not draining")
			}
			for i := 0; i < 100000; i++ {
				if got := recvOne(t, in).Msg.(testMsg).Seq; got != i {
					t.Fatalf("lost or reordered at %d (got %d)", i, got)
				}
			}
		})
	}
}

func TestTCPSendFromUnregistered(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			if _, err := n.Register(1); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 5, To: 1, Msg: testMsg{}}); err == nil {
				t.Fatal("send from unregistered sender must fail")
			}
		})
	}
}

// TestReceiverGetsItsOwnCopy: Send encodes the message before it
// returns, so a sender that reuses a slice afterwards cannot change what
// the receiver got — on either medium, no value is shared between
// endpoints.
func TestReceiverGetsItsOwnCopy(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			in, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			b := []byte("original")
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 1, B: b}}); err != nil {
				t.Fatal(err)
			}
			copy(b, "MUTATED!")
			got := recvOne(t, in).Msg.(testMsg).B
			if string(got) != "original" {
				t.Fatalf("received %q, want %q: the sender's slice reached the receiver", got, "original")
			}
			if &got[0] == &b[0] {
				t.Fatal("received message aliases the sender's slice")
			}
		})
	}
}
