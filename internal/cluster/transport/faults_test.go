package transport

import (
	"testing"
	"time"
)

// drainUntilQuiet receives until the inbox stays silent for the given
// window, returning every sequence number seen.
func drainUntilQuiet(in <-chan Envelope, quiet time.Duration) []int {
	var seqs []int
	for {
		select {
		case env, ok := <-in:
			if !ok {
				return seqs
			}
			seqs = append(seqs, env.Msg.(testMsg).Seq)
		case <-time.After(quiet):
			return seqs
		}
	}
}

func TestFaultsPartitionBlocksAndHeals(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(1)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			// Pre-partition traffic flows (and, on TCP, establishes the
			// connection the partition must then starve).
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 0}}); err != nil {
				t.Fatal(err)
			}
			recvOne(t, in1)

			f.Partition([]NodeID{1}, []NodeID{2})
			for i := 1; i <= 5; i++ {
				// The send itself must look successful — a partition is
				// silence, not an error the sender can see.
				if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i}}); err != nil {
					t.Fatalf("send during partition: %v", err)
				}
			}
			if got := drainUntilQuiet(in1, 200*time.Millisecond); len(got) != 0 {
				t.Fatalf("partitioned link delivered %v", got)
			}

			f.Heal()
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 99}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in1).Msg.(testMsg).Seq; got != 99 {
				t.Fatalf("post-heal delivery got seq %d, want 99 (lost frames must stay lost)", got)
			}
		})
	}
}

func TestFaultsPartitionOneWay(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(2)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			in2, err := n.Register(2)
			if err != nil {
				t.Fatal(err)
			}
			f.PartitionOneWay([]NodeID{1}, []NodeID{2})
			if err := n.Send(Envelope{From: 1, To: 2, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 2}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in1).Msg.(testMsg).Seq; got != 2 {
				t.Fatalf("reverse direction got seq %d, want 2", got)
			}
			if got := drainUntilQuiet(in2, 200*time.Millisecond); len(got) != 0 {
				t.Fatalf("blocked direction delivered %v", got)
			}
		})
	}
}

func TestFaultsLinkDelay(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(3)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			f.SetLinkDelay([]NodeID{2}, []NodeID{1}, 60*time.Millisecond, 0)
			start := time.Now()
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			recvOne(t, in1)
			if el := time.Since(start); el < 50*time.Millisecond {
				t.Fatalf("delayed link delivered in %v, want ≥ ~60ms", el)
			}

			// FIFO survives a burst under the uniform delay, and under
			// jitter, where a later frame drawing a shorter delay must not
			// overtake an earlier one.
			for _, rule := range []struct{ base, jitter time.Duration }{
				{5 * time.Millisecond, 0},
				{20 * time.Millisecond, 15 * time.Millisecond},
			} {
				f.SetLinkDelay([]NodeID{2}, []NodeID{1}, rule.base, rule.jitter)
				const count = 30
				for i := 0; i < count; i++ {
					if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i}}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < count; i++ {
					if got := recvOne(t, in1).Msg.(testMsg).Seq; got != i {
						t.Fatalf("link delayed %v±%v reordered: got %d at position %d", rule.base, rule.jitter, got, i)
					}
				}
			}
		})
	}
}

func TestFaultsDelayNoHeadOfLineBlocking(t *testing.T) {
	// A slow 2→1 link must not stall an unrelated 3→1 sender into the
	// same inbox (each link sleeps on its own connection).
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(4)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(3); err != nil {
				t.Fatal(err)
			}
			f.SetLinkDelay([]NodeID{2}, []NodeID{1}, 150*time.Millisecond, 0)
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			if err := n.Send(Envelope{From: 3, To: 1, Msg: testMsg{Seq: 2}}); err != nil {
				t.Fatal(err)
			}
			first := recvOne(t, in1)
			if first.From != 3 {
				t.Fatalf("fast link waited behind slow link: first delivery from %d", first.From)
			}
			if second := recvOne(t, in1); second.From != 2 {
				t.Fatalf("delayed frame never arrived: second delivery from %d", second.From)
			}
		})
	}
}

func TestFaultsDropRates(t *testing.T) {
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(5)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			f.SetLinkDrop([]NodeID{2}, []NodeID{1}, 1)
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 1}}); err != nil {
				t.Fatal(err)
			}
			if got := drainUntilQuiet(in1, 200*time.Millisecond); len(got) != 0 {
				t.Fatalf("p=1 link delivered %v", got)
			}
			f.SetLinkDrop([]NodeID{2}, []NodeID{1}, 0) // removes the rule
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 2}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in1).Msg.(testMsg).Seq; got != 2 {
				t.Fatalf("after rule removal got seq %d", got)
			}
		})
	}
}

func TestTCPDropsNeverCorruptFraming(t *testing.T) {
	// Probabilistic drops on a link remove whole decoded messages; every
	// frame that survives must arrive intact and in order, and the
	// connection must stay usable afterwards.
	for name, mk := range fabrics() {
		t.Run(name, func(t *testing.T) {
			n := mk()
			defer n.Close()
			f := NewFaults(6)
			n.SetFaults(f)
			in1, err := n.Register(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Register(2); err != nil {
				t.Fatal(err)
			}
			f.SetLinkDrop([]NodeID{2}, []NodeID{1}, 0.5)
			const count = 400
			for i := 0; i < count; i++ {
				if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: i, S: "payload"}}); err != nil {
					t.Fatal(err)
				}
			}
			got := drainUntilQuiet(in1, 500*time.Millisecond)
			if len(got) == 0 || len(got) == count {
				t.Fatalf("received %d of %d at p=0.5 — drops not applied", len(got), count)
			}
			if len(got) < count/5 || len(got) > count*4/5 {
				t.Errorf("received %d of %d at p=0.5 — far outside plausible range", len(got), count)
			}
			// The surviving subset must preserve the link's send order:
			// frames vanish whole, they never tear or reorder the stream.
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					t.Fatalf("surviving frames reordered: %d after %d", got[i], got[i-1])
				}
			}
			f.Heal()
			if err := n.Send(Envelope{From: 2, To: 1, Msg: testMsg{Seq: 12345}}); err != nil {
				t.Fatal(err)
			}
			if got := recvOne(t, in1).Msg.(testMsg).Seq; got != 12345 {
				t.Fatalf("connection unusable after lossy period: got seq %d", got)
			}
		})
	}
}

func TestFaultsSeedReproducible(t *testing.T) {
	// Two equally-seeded plans make identical drop decisions; Describe
	// renders the installed rules for scenario logs.
	coinRun := func(seed int64) []bool {
		f := NewFaults(seed)
		f.SetLinkDrop([]NodeID{1}, []NodeID{2}, 0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = f.judge(1, 2).drop
		}
		return out
	}
	a, b := coinRun(42), coinRun(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("coin %d differs across equally-seeded plans", i)
		}
	}
	f := NewFaults(7)
	if f.Seed() != 7 {
		t.Fatalf("Seed() = %d", f.Seed())
	}
	if f.Describe() != "healthy" {
		t.Fatalf("empty plan describes as %q", f.Describe())
	}
	f.Partition([]NodeID{1}, []NodeID{2})
	if d := f.Describe(); d != "block 1→2, block 2→1" {
		t.Fatalf("Describe() = %q", d)
	}
	f.Heal()
	if f.Describe() != "healthy" {
		t.Fatalf("healed plan describes as %q", f.Describe())
	}
}
