package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dbdht/internal/metrics"
)

func newDHT(t *testing.T, pmin, vmin int, seed int64) *DHT {
	t.Helper()
	d, err := New(Config{Pmin: pmin, Vmin: vmin}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func grow(t *testing.T, d *DHT, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, _, err := d.AddVnode(); err != nil {
			t.Fatalf("AddVnode #%d: %v", i, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, bad := range []Config{{Pmin: 0, Vmin: 8}, {Pmin: 3, Vmin: 8}, {Pmin: 8, Vmin: 0}, {Pmin: 8, Vmin: 12}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("config %+v must be invalid", bad)
		}
	}
	if err := (Config{Pmin: 8, Vmin: 8}).Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pmin: 8, Vmin: 8}, nil); err == nil {
		t.Fatal("nil rng must be rejected")
	}
}

func TestFirstVnodeCreatesFirstGroup(t *testing.T) {
	d := newDHT(t, 8, 4, 1)
	id, gid, err := d.AddVnode()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || gid != (GroupID{}) {
		t.Fatalf("first vnode = %d in group %v", id, gid)
	}
	if d.Groups() != 1 || d.Vnodes() != 1 {
		t.Fatalf("G=%d V=%d", d.Groups(), d.Vnodes())
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// While V ≤ Vmax there is one sole group (zone 1 of §4.1.1); the group
// splits on the (Vmax+1)'th vnode.
func TestSingleGroupUntilVmax(t *testing.T) {
	d := newDHT(t, 8, 4, 2)
	grow(t, d, d.Vmax())
	if d.Groups() != 1 {
		t.Fatalf("G=%d before overflow, want 1", d.Groups())
	}
	grow(t, d, 1)
	if d.Groups() != 2 {
		t.Fatalf("G=%d after overflow, want 2", d.Groups())
	}
	if d.Stats().GroupSplits != 1 {
		t.Fatalf("GroupSplits=%d", d.Stats().GroupSplits)
	}
	// The split children carry ids "0" and "1".
	ids := d.GroupIDs()
	if len(ids) != 2 || ids[0].String() != "0" || ids[1].String() != "1" {
		t.Fatalf("group ids = %v", ids)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsDuringGrowth(t *testing.T) {
	d := newDHT(t, 8, 8, 3)
	for i := 0; i < 200; i++ {
		if _, _, err := d.AddVnode(); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("after add %d: %v", i, err)
		}
	}
	// Vnode quotas must sum to 1: the groups tile R_h.
	sum := 0.0
	for _, q := range d.VnodeQuotas() {
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("vnode quotas sum to %v", sum)
	}
	gsum := 0.0
	for _, q := range d.GroupQuotas() {
		gsum += q
	}
	if math.Abs(gsum-1) > 1e-9 {
		t.Fatalf("group quotas sum to %v", gsum)
	}
}

// Zone 1 (§4.1.1): while one group exists, the local approach IS the global
// approach — σ̄(Q_v) equals the GPDR relative deviation of the counts.
func TestZone1MatchesGlobalBehaviour(t *testing.T) {
	d := newDHT(t, 16, 8, 5)
	for v := 0; v < 16; v++ { // stays within Vmax=16 ⇒ one group
		grow(t, d, 1)
		n := v + 1
		if n&(n-1) == 0 {
			// Power of two ⇒ perfectly balanced (G5′ within the sole group).
			if q := d.QualityOfBalancement(); q > 1e-12 {
				t.Fatalf("V=%d: σ̄=%v, want 0", n, q)
			}
		}
	}
}

func TestLookupAlwaysResolves(t *testing.T) {
	d := newDHT(t, 8, 8, 7)
	grow(t, d, 100)
	f := func(i uint64) bool {
		v, ok := d.Lookup(i)
		if !ok {
			return false
		}
		// The owner must actually own a partition containing i.
		gid, ok := d.GroupOf(v)
		if !ok {
			return false
		}
		g, _ := d.Group(gid)
		for _, p := range g.sc.Partitions(v) {
			if p.Contains(i) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.LookupKey([]byte("anything")); !ok {
		t.Fatal("LookupKey must resolve")
	}
}

func TestGroupSizesWithinL2(t *testing.T) {
	d := newDHT(t, 8, 8, 11)
	grow(t, d, 500)
	for _, id := range d.GroupIDs() {
		g, _ := d.Group(id)
		if g.Vnodes() < 1 || g.Vnodes() > d.Vmax() {
			t.Fatalf("group %v has %d vnodes", id, g.Vnodes())
		}
	}
	// With 500 vnodes and Vmin=8 there must be many groups.
	if d.Groups() < 500/16 {
		t.Fatalf("suspiciously few groups: %d", d.Groups())
	}
}

func TestRemoveVnode(t *testing.T) {
	d := newDHT(t, 8, 4, 13)
	grow(t, d, 50)
	rng := rand.New(rand.NewSource(99))
	removed := 0
	for attempt := 0; removed < 30 && attempt < 500; attempt++ {
		// Pick a random live vnode via lookup.
		v, ok := d.Lookup(rng.Uint64())
		if !ok {
			t.Fatal("lookup failed")
		}
		gid, _ := d.GroupOf(v)
		g, _ := d.Group(gid)
		if g.Vnodes() == 1 {
			continue // dissolution refused by design
		}
		if err := d.RemoveVnode(v); err != nil {
			t.Fatalf("remove %d: %v", v, err)
		}
		removed++
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("after remove %d: %v", v, err)
		}
	}
	if removed < 30 {
		t.Fatalf("only removed %d vnodes", removed)
	}
	if err := d.RemoveVnode(100000); err == nil {
		t.Fatal("removing absent vnode must fail")
	}
}

func TestRemoveLastVnodeRefused(t *testing.T) {
	d := newDHT(t, 8, 4, 17)
	grow(t, d, 1)
	if err := d.RemoveVnode(0); err == nil {
		t.Fatal("removing the only vnode must fail")
	}
}

func TestRemoveSingletonGroupRefused(t *testing.T) {
	d := newDHT(t, 8, 2, 19)
	grow(t, d, 40)
	// Shrink some group to one member, then removal of that member must be
	// refused while other groups exist.
	var target *Group
	for _, id := range d.GroupIDs() {
		g, _ := d.Group(id)
		if g.Vnodes() >= 2 {
			target = g
			break
		}
	}
	if target == nil {
		t.Fatal("no group with ≥2 vnodes")
	}
	for target.Vnodes() > 1 {
		vs := target.sc.Vnodes()
		if err := d.RemoveVnode(vs[0]); err != nil {
			t.Fatal(err)
		}
	}
	last := target.sc.Vnodes()[0]
	if err := d.RemoveVnode(last); err == nil {
		t.Fatal("removing a singleton group's vnode must fail")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Determinism: identical seeds produce identical evolution — required for
// the reproducibility of every figure.
func TestDeterministicEvolution(t *testing.T) {
	run := func() ([]float64, int) {
		d := newDHT(t, 16, 16, 42)
		grow(t, d, 300)
		return d.VnodeQuotas(), d.Groups()
	}
	q1, g1 := run()
	q2, g2 := run()
	if g1 != g2 {
		t.Fatalf("group counts differ: %d vs %d", g1, g2)
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("quota %d differs: %v vs %v", i, q1[i], q2[i])
		}
	}
}

// §4.2: with Vmin large enough that Vmax ≥ total vnodes, there is one sole
// group and the local approach degenerates to the global approach exactly.
func TestDegenerateToGlobalWhenVminHuge(t *testing.T) {
	d := newDHT(t, 32, 512, 23)
	grow(t, d, 256)
	if d.Groups() != 1 {
		t.Fatalf("G=%d, want 1", d.Groups())
	}
	// At V=256 (power of two) the balance is perfect.
	if q := d.QualityOfBalancement(); q > 1e-12 {
		t.Fatalf("σ̄=%v, want 0 at power-of-two V", q)
	}
}

// The headline qualitative result of figure 4/6: smaller Vmin (many small
// groups) yields worse balancement than larger Vmin, and both are far from
// the global optimum of 0 at powers of two.
func TestQualityOrderingAcrossVmin(t *testing.T) {
	quality := func(vmin int) float64 {
		var runs []metrics.Series
		for seed := int64(0); seed < 5; seed++ {
			d := newDHT(t, 32, vmin, 100+seed)
			grow(t, d, 512)
			runs = append(runs, metrics.Series{X: []int{0}, Y: []float64{d.QualityOfBalancement()}})
		}
		m, err := metrics.MeanSeries(runs)
		if err != nil {
			t.Fatal(err)
		}
		return m.Y[0]
	}
	small := quality(8)
	large := quality(128)
	if small <= large {
		t.Fatalf("σ̄(Vmin=8)=%v must exceed σ̄(Vmin=128)=%v", small, large)
	}
}

func TestStatsAccumulateAcrossGroupSplits(t *testing.T) {
	d := newDHT(t, 8, 4, 29)
	grow(t, d, 100)
	st := d.Stats()
	if st.GroupSplits == 0 || st.GroupCreations < 2*st.GroupSplits {
		t.Fatalf("stats: %+v", st)
	}
	if st.Handovers == 0 || st.PartitionSplits == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGroupAccessors(t *testing.T) {
	d := newDHT(t, 8, 4, 31)
	grow(t, d, 20)
	for _, id := range d.GroupIDs() {
		g, ok := d.Group(id)
		if !ok {
			t.Fatalf("group %v missing", id)
		}
		lp := g.LPDR()
		if len(lp) != g.Vnodes() {
			t.Fatalf("LPDR size %d ≠ V_g %d", len(lp), g.Vnodes())
		}
		for v, c := range lp {
			if c < 8 || c > 16 {
				t.Fatalf("G4′ violated in LPDR of %v: vnode %d has %d", id, v, c)
			}
		}
		if g.Quota() <= 0 || g.Quota() > 1 {
			t.Fatalf("group quota %v out of range", g.Quota())
		}
		if g.ID() != id {
			t.Fatal("ID accessor mismatch")
		}
		if g.Level() == 0 {
			t.Fatal("group level must be positive after growth")
		}
	}
	if _, ok := d.Group(GroupID{Bits: 12345, Len: 60}); ok {
		t.Fatal("absent group must not resolve")
	}
	if _, ok := d.GroupOf(99999); ok {
		t.Fatal("absent vnode must not resolve a group")
	}
}

// Property: random add-heavy churn preserves every invariant.
func TestChurnPropertyLocal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := New(Config{Pmin: 8, Vmin: 4}, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return false
		}
		for op := 0; op < 80; op++ {
			if d.Vnodes() < 2 || rng.Intn(4) != 0 {
				if _, _, err := d.AddVnode(); err != nil {
					return false
				}
			} else {
				v, ok := d.Lookup(rng.Uint64())
				if !ok {
					return false
				}
				if err := d.RemoveVnode(v); err != nil {
					// Singleton-group and last-vnode refusals are expected.
					continue
				}
			}
		}
		return d.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBalancementMetric(t *testing.T) {
	d := newDHT(t, 32, 32, 37)
	grow(t, d, 64) // one group: σ̄(Q_g) = 0
	if gb := d.GroupBalancement(); gb != 0 {
		t.Fatalf("single group σ̄(Q_g) = %v, want 0", gb)
	}
	grow(t, d, 200)
	if d.Groups() < 2 {
		t.Fatal("expected multiple groups")
	}
	if gb := d.GroupBalancement(); gb < 0 {
		t.Fatalf("σ̄(Q_g) = %v", gb)
	}
	var empty DHT
	if empty.GroupBalancement() != 0 {
		t.Fatal("empty DHT group balancement must be 0")
	}
}

// Group identifiers remain globally unique across an entire grown DHT,
// including dissolved ancestors never colliding with live descendants.
func TestLiveGroupIDsDistinct(t *testing.T) {
	d := newDHT(t, 8, 4, 53)
	grow(t, d, 300)
	seen := map[GroupID]bool{}
	for _, id := range d.GroupIDs() {
		if seen[id] {
			t.Fatalf("duplicate live group id %v", id)
		}
		seen[id] = true
	}
	// Identifier lengths are consistent with the number of splits: a DHT
	// with G live groups has ids of length ≤ ~log2(G) + a few.
	for id := range seen {
		if int(id.Len) > 12 {
			t.Fatalf("implausibly deep group id %v for %d groups", id, len(seen))
		}
	}
}

// The DHT-wide index agrees with per-group scopes after heavy churn.
func TestIndexConsistencyAfterChurn(t *testing.T) {
	d := newDHT(t, 8, 4, 59)
	rng := rand.New(rand.NewSource(60))
	for op := 0; op < 400; op++ {
		if d.Vnodes() < 5 || rng.Intn(3) > 0 {
			if _, _, err := d.AddVnode(); err != nil {
				t.Fatal(err)
			}
		} else {
			v, _ := d.Lookup(rng.Uint64())
			_ = d.RemoveVnode(v) // refusals fine
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spot-check lookups against group scopes.
	for i := 0; i < 200; i++ {
		r := rng.Uint64()
		v, ok := d.Lookup(r)
		if !ok {
			t.Fatal("lookup miss")
		}
		gid, _ := d.GroupOf(v)
		g, _ := d.Group(gid)
		owner, ok := g.sc.Lookup(r)
		if !ok || owner != v {
			t.Fatalf("index says %d, group scope says %d,%v", v, owner, ok)
		}
	}
}

// The planner's draws are pinned: seed 1 grown to 1024 vnodes gives the
// figures recorded before the group logic moved into package balance.  A
// planner that consumed random draws in a different order (the victim
// r, the split's shuffle, the child, the victim partitions) would change
// every one of them.
func TestPlannerDrawOrderPinned(t *testing.T) {
	for _, tc := range []struct {
		pmin, vmin              int
		sigma                   float64
		groups, splits, handovs int
	}{
		{8, 8, 0.17949633173262552, 91, 90, 10648},
		{32, 8, 0.2193855861272354, 89, 88, 44406},
	} {
		d := newDHT(t, tc.pmin, tc.vmin, 1)
		grow(t, d, 1024)
		s := d.Stats()
		if got := d.QualityOfBalancement(); got != tc.sigma {
			t.Errorf("(%d,%d): σ̄(Qv) = %v, want %v", tc.pmin, tc.vmin, got, tc.sigma)
		}
		if d.Groups() != tc.groups || s.GroupSplits != tc.splits || s.Handovers != tc.handovs {
			t.Errorf("(%d,%d): groups %d, GroupSplits %d, Handovers %d; want %d, %d, %d",
				tc.pmin, tc.vmin, d.Groups(), s.GroupSplits, s.Handovers, tc.groups, tc.splits, tc.handovs)
		}
	}
}
