package scope

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbdht/internal/hashspace"
)

func newScope(t *testing.T, pmin int, seed int64) *Scope {
	t.Helper()
	s, err := New(pmin, rand.New(rand.NewSource(seed)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bad := range []int{0, -4, 3, 12} {
		if _, err := New(bad, rng, nil); err == nil {
			t.Errorf("Pmin=%d must be rejected", bad)
		}
	}
	if _, err := New(8, nil, nil); err == nil {
		t.Fatal("nil rng must be rejected")
	}
	s, err := New(8, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pmin() != 8 || s.Pmax() != 16 {
		t.Fatalf("Pmin/Pmax = %d/%d", s.Pmin(), s.Pmax())
	}
}

func TestBootstrapTilesRange(t *testing.T) {
	s := newScope(t, 32, 1)
	if err := s.AddVnode(0); err != nil {
		t.Fatal(err)
	}
	if s.Level() != 5 {
		t.Fatalf("level = %d, want log2(32)=5", s.Level())
	}
	if got := s.TotalPartitions(); got != 32 {
		t.Fatalf("P = %d, want 32", got)
	}
	if q := s.TotalQuota(); q != 1.0 {
		t.Fatalf("total quota = %v, want 1", q)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Lookup(0xDEADBEEF); !ok || v != 0 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
	if err := s.Bootstrap(1); err == nil {
		t.Fatal("second Bootstrap must fail")
	}
}

func TestAddVnodeSequenceInvariants(t *testing.T) {
	s := newScope(t, 8, 7)
	for v := VnodeID(0); v < 100; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatalf("add %d: %v", v, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after add %d: %v", v, err)
		}
		if q := s.TotalQuota(); q < 0.999999 || q > 1.000001 {
			t.Fatalf("after add %d: total quota %v", v, q)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.AddVnode(5); err == nil {
		t.Fatal("duplicate vnode must be rejected")
	}
}

func TestPowerOfTwoPerfectBalance(t *testing.T) {
	s := newScope(t, 16, 3)
	for v := VnodeID(0); v < 64; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
		n := int(v) + 1
		if n&(n-1) == 0 {
			for _, id := range s.Vnodes() {
				if c, _ := s.PartitionCount(id); c != 16 {
					t.Fatalf("V=%d: vnode %d has %d partitions, want Pmin", n, id, c)
				}
			}
			qs := s.Quotas()
			for _, q := range qs {
				if q != qs[0] {
					t.Fatalf("V=%d: quotas not uniform: %v", n, qs)
				}
			}
		}
	}
}

func TestRemoveVnodeRestoresInvariants(t *testing.T) {
	s := newScope(t, 8, 11)
	for v := VnodeID(0); v < 37; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for s.Len() > 1 {
		ids := s.Vnodes()
		victim := ids[rng.Intn(len(ids))]
		if err := s.RemoveVnode(victim); err != nil {
			t.Fatalf("remove %d at V=%d: %v", victim, s.Len(), err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after remove %d: %v", victim, err)
		}
		if q := s.TotalQuota(); q < 0.999999 || q > 1.000001 {
			t.Fatalf("after remove: total quota %v", q)
		}
	}
	// Final vnode owns everything and cannot leave.
	last := s.Vnodes()[0]
	if err := s.RemoveVnode(last); err == nil {
		t.Fatal("removing last vnode with partitions must fail")
	}
	if err := s.RemoveVnode(999); err == nil {
		t.Fatal("removing absent vnode must fail")
	}
}

func TestStatsCounting(t *testing.T) {
	s := newScope(t, 8, 5)
	for v := VnodeID(0); v < 4; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	// Splits happen at V transitions 1→2 and 2→3 (each when all at Pmin).
	if st.Splits != 2 {
		t.Fatalf("Splits = %d, want 2", st.Splits)
	}
	if st.Handovers == 0 {
		t.Fatal("handovers must have occurred")
	}
	if st.Merges != 0 {
		t.Fatalf("Merges = %d, want 0", st.Merges)
	}
}

func TestMergeHappensOnShrink(t *testing.T) {
	s := newScope(t, 8, 13)
	for v := VnodeID(0); v < 16; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	// V=16 (power of two): P = 128.  Shrinking to V=9 keeps P < V*Pmax
	// (128 < 144); reaching V=8 hits P = V*Pmax and G5 forces the merge.
	for v := VnodeID(15); v >= 9; v-- {
		if err := s.RemoveVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Merges != 0 {
		t.Fatalf("no merge expected at V=9 yet, got %d", s.Stats().Merges)
	}
	if err := s.RemoveVnode(8); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Merges != 1 {
		t.Fatalf("Merges = %d, want 1 after shrinking to V=8", s.Stats().Merges)
	}
	// G5 restored: all vnodes back at Pmin.
	for _, id := range s.Vnodes() {
		if c, _ := s.PartitionCount(id); c != 8 {
			t.Fatalf("vnode %d has %d partitions after merge, want Pmin=8", id, c)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q := s.TotalQuota(); q < 0.999999 || q > 1.000001 {
		t.Fatalf("total quota after merge = %v", q)
	}
}

func TestDetachAttach(t *testing.T) {
	s := newScope(t, 8, 17)
	for v := VnodeID(0); v < 8; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	other := newScope(t, 8, 18)
	level := s.Level()
	for v := VnodeID(4); v < 8; v++ {
		set, err := s.Detach(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Attach(v, set, level); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 || other.Len() != 4 {
		t.Fatalf("lens = %d,%d", s.Len(), other.Len())
	}
	// The two scopes' quotas must sum to 1 (they tile R_h together).
	if q := s.TotalQuota() + other.TotalQuota(); q < 0.999999 || q > 1.000001 {
		t.Fatalf("combined quota = %v", q)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := other.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A detached vnode is gone.
	if _, err := s.Detach(4); err == nil {
		t.Fatal("detaching absent vnode must fail")
	}
	// Level mismatch on attach is rejected.
	extra, _ := s.Detach(0)
	if err := other.Attach(0, extra, level+1); err == nil {
		t.Fatal("level mismatch must be rejected")
	}
	if err := other.Attach(0, extra, level); err != nil {
		t.Fatal(err)
	}
	if err := other.Attach(0, extra, level); err == nil {
		t.Fatal("duplicate attach must be rejected")
	}
}

func TestLookupCoversWholeRange(t *testing.T) {
	s := newScope(t, 8, 23)
	for v := VnodeID(0); v < 13; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	f := func(i uint64) bool {
		_, ok := s.Lookup(i)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOwns(t *testing.T) {
	s := newScope(t, 8, 29)
	if err := s.AddVnode(0); err != nil {
		t.Fatal(err)
	}
	p := s.Partitions(0)[0]
	if v, ok := s.Owns(p); !ok || v != 0 {
		t.Fatalf("Owns = %d,%v", v, ok)
	}
	if _, ok := s.Owns(hashspace.Partition{Prefix: 0, Level: 63}); ok {
		t.Fatal("deep foreign partition must not be owned")
	}
	if s.Partitions(99) != nil {
		t.Fatal("partitions of absent vnode must be nil")
	}
}

type recordingObserver struct {
	moved, split, merged, removed int
}

func (r *recordingObserver) PartitionMoved(hashspace.Partition, VnodeID, VnodeID) { r.moved++ }
func (r *recordingObserver) PartitionSplit(hashspace.Partition, VnodeID)          { r.split++ }
func (r *recordingObserver) PartitionMerged(hashspace.Partition, VnodeID)         { r.merged++ }
func (r *recordingObserver) VnodeRemoved(VnodeID)                                 { r.removed++ }

func TestObserverEvents(t *testing.T) {
	obs := &recordingObserver{}
	s, err := New(8, rand.New(rand.NewSource(31)), obs)
	if err != nil {
		t.Fatal(err)
	}
	for v := VnodeID(0); v < 3; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	if obs.split == 0 || obs.moved == 0 {
		t.Fatalf("observer missed events: %+v", obs)
	}
	if obs.moved != s.Stats().Handovers {
		t.Fatalf("moved events %d ≠ handovers %d", obs.moved, s.Stats().Handovers)
	}
	if err := s.RemoveVnode(2); err != nil {
		t.Fatal(err)
	}
	if obs.removed != 1 {
		t.Fatalf("removed events = %d, want 1", obs.removed)
	}
}

// Property: arbitrary interleavings of adds and removes keep every invariant
// and full coverage of R_h.
func TestRandomChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(8, rand.New(rand.NewSource(seed+1)), nil)
		if err != nil {
			return false
		}
		next := VnodeID(0)
		live := []VnodeID{}
		for op := 0; op < 60; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				if err := s.AddVnode(next); err != nil {
					return false
				}
				live = append(live, next)
				next++
			} else if len(live) > 1 {
				i := rng.Intn(len(live))
				if err := s.RemoveVnode(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
			if q := s.TotalQuota(); q < 0.999999 || q > 1.000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaAccessors(t *testing.T) {
	s := newScope(t, 8, 41)
	for v := VnodeID(0); v < 4; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	q, ok := s.Quota(0)
	if !ok || q != 0.25 {
		t.Fatalf("Quota(0) = %v,%v want 0.25 at V=4", q, ok)
	}
	if _, ok := s.Quota(99); ok {
		t.Fatal("quota of absent vnode must miss")
	}
	counts := s.Counts()
	if len(counts) != 4 {
		t.Fatalf("Counts len = %d", len(counts))
	}
	for v, c := range counts {
		if c != 8 {
			t.Fatalf("vnode %d count %d, want Pmin at power-of-two V", v, c)
		}
	}
	if s.TotalPartitions() != 32 {
		t.Fatalf("P = %d", s.TotalPartitions())
	}
}

// A scope that covers only part of R_h cannot always merge; it keeps
// working and self-heals as it regrows: counts come back inside
// [Pmin, Pmax].
func TestSoftUpperHealsOnRegrowth(t *testing.T) {
	s := newScope(t, 8, 43)
	for v := VnodeID(0); v < 16; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
	}
	// Detach half the vnodes WITH their partitions (simulating a group
	// split), leaving a scope that owns a scattered subset of R_h...
	other := newScope(t, 8, 44)
	for v := VnodeID(8); v < 16; v++ {
		set, err := s.Detach(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Attach(v, set, s.Level()); err != nil {
			t.Fatal(err)
		}
	}
	// ...then shrink it: merges are impossible (siblings live in `other`),
	// so counts may exceed Pmax.
	for v := VnodeID(1); v < 6; v++ {
		if err := s.RemoveVnode(v); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	overfull := false
	for _, c := range s.Counts() {
		if c > s.Pmax() {
			overfull = true
		}
	}
	if !overfull {
		t.Skip("shrink did not overfill; seed-dependent")
	}
	// Regrow: new vnodes absorb the excess until G4's upper bound holds.
	for v := VnodeID(100); ; v++ {
		if err := s.AddVnode(v); err != nil {
			t.Fatal(err)
		}
		healed := true
		for _, c := range s.Counts() {
			if c > s.Pmax() {
				healed = false
			}
		}
		if healed {
			break
		}
		if v > 200 {
			t.Fatal("scope did not heal within 100 additions")
		}
	}
}
