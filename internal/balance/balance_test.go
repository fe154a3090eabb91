package balance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func newIntTable(t *testing.T, counts map[int]int) *Table[int] {
	t.Helper()
	tb := NewTable[int](intLess)
	for k := range counts {
		if err := tb.Add(k); err != nil {
			t.Fatal(err)
		}
	}
	for k, c := range counts {
		if err := tb.SetCount(k, c); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestAddRemoveSetCount(t *testing.T) {
	tb := NewTable[int](intLess)
	if err := tb.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add(1); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if err := tb.SetCount(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := tb.SetCount(2, 5); err == nil {
		t.Fatal("SetCount on absent vnode must fail")
	}
	if err := tb.SetCount(1, -1); err == nil {
		t.Fatal("negative count must fail")
	}
	if c, err := tb.Remove(1); err != nil || c != 5 {
		t.Fatalf("Remove = %d,%v", c, err)
	}
	if _, err := tb.Remove(1); err == nil {
		t.Fatal("double Remove must fail")
	}
}

func TestMaxMinDeterministicTieBreak(t *testing.T) {
	tb := newIntTable(t, map[int]int{3: 7, 1: 7, 2: 7})
	for trial := 0; trial < 20; trial++ {
		if k, c, ok := tb.Max(); !ok || k != 1 || c != 7 {
			t.Fatalf("Max = %d,%d,%v want 1,7,true", k, c, ok)
		}
		if k, c, ok := tb.Min(); !ok || k != 1 || c != 7 {
			t.Fatalf("Min = %d,%d,%v want 1,7,true", k, c, ok)
		}
	}
	var empty Table[int]
	empty.less = intLess
	if _, _, ok := empty.Max(); ok {
		t.Fatal("Max of empty table must report !ok")
	}
}

func TestKeysSorted(t *testing.T) {
	tb := newIntTable(t, map[int]int{5: 1, 1: 2, 3: 3})
	keys := tb.Keys()
	want := []int{1, 3, 5}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", keys, want)
		}
	}
}

// The closed-form move criterion must agree with the paper's literal
// "compute σ before and after" formulation.
func TestMoveCriterionMatchesExplicitSigma(t *testing.T) {
	// A move keeps the mean constant, so σ decreases iff Σx² decreases;
	// integer arithmetic keeps the comparison exact (a float σ would round
	// permutations like 17,16 → 16,17 inconsistently).
	explicit := func(counts []int, from, to int) bool {
		sumsq := func(xs []int) int {
			s := 0
			for _, x := range xs {
				s += x * x
			}
			return s
		}
		before := sumsq(counts)
		moved := append([]int(nil), counts...)
		moved[from]--
		moved[to]++
		return sumsq(moved) < before
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 1 + rng.Intn(20)
		}
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to || counts[from] < 1 {
			return true
		}
		return moveDecreasesSigma(counts[from], counts[to]) == explicit(counts, from, to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCreateFirstVnode(t *testing.T) {
	tb := NewTable[int](intLess)
	if err := tb.Add(0); err != nil {
		t.Fatal(err)
	}
	split, moves, err := tb.PlanCreate(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if split || len(moves) != 0 {
		t.Fatalf("first vnode: split=%v moves=%v", split, moves)
	}
	if c, _ := tb.Count(0); c != 32 {
		t.Fatalf("first vnode count = %d, want Pmin=32", c)
	}
}

func TestPlanCreateSecondVnodeSplits(t *testing.T) {
	const pmin = 8
	tb := NewTable[int](intLess)
	tb.Add(0)
	tb.PlanCreate(0, pmin)
	tb.Add(1)
	split, moves, err := tb.PlanCreate(1, pmin)
	if err != nil {
		t.Fatal(err)
	}
	if !split {
		t.Fatal("adding 2nd vnode when all at Pmin must trigger scope split")
	}
	// After split v0 has 2*pmin; handover flattens to pmin/pmin... both 8.
	c0, _ := tb.Count(0)
	c1, _ := tb.Count(1)
	if c0 != pmin || c1 != pmin {
		t.Fatalf("counts after 2nd create = %d,%d want %d,%d", c0, c1, pmin, pmin)
	}
	if len(moves) != pmin {
		t.Fatalf("moves = %d, want %d", len(moves), pmin)
	}
	for _, m := range moves {
		if m.From != 0 || m.To != 1 {
			t.Fatalf("unexpected move %+v", m)
		}
	}
}

func TestPlanCreateErrors(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 8})
	if _, _, err := tb.PlanCreate(99, 8); err == nil {
		t.Fatal("unregistered new vnode must error")
	}
	tb.Add(1)
	tb.SetCount(1, 3)
	if _, _, err := tb.PlanCreate(1, 8); err == nil {
		t.Fatal("nonzero starting count must error")
	}
	tb2 := newIntTable(t, map[int]int{0: 8})
	tb2.Add(1)
	if _, _, err := tb2.PlanCreate(1, 0); err == nil {
		t.Fatal("pmin < 1 must error")
	}
}

// Simulate the global approach purely on counts: consecutive creations must
// keep G4 bounds and reach the perfectly flat distribution at every power of
// two (invariant G5), with σ̄ = 0 there.
func TestConsecutiveCreationsInvariants(t *testing.T) {
	const pmin = 8
	const pmax = 2 * pmin
	tb := NewTable[int](intLess)
	for v := 0; v < 256; v++ {
		if err := tb.Add(v); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tb.PlanCreate(v, pmin); err != nil {
			t.Fatalf("create %d: %v", v, err)
		}
		if err := tb.CheckBounds(pmin, pmax); err != nil {
			t.Fatalf("after create %d: %v", v, err)
		}
		vcount := v + 1
		if vcount&(vcount-1) == 0 { // power of two: invariant G5
			for _, k := range tb.Keys() {
				if c, _ := tb.Count(k); c != pmin {
					t.Fatalf("V=%d (power of 2): vnode %d has %d, want Pmin", vcount, k, c)
				}
			}
			if s := tb.RelStdDev(); s != 0 {
				t.Fatalf("V=%d: σ̄ = %v, want 0", vcount, s)
			}
		}
		// Total partitions always a power of two (invariant G2).
		p := tb.Total()
		if p&(p-1) != 0 {
			t.Fatalf("V=%d: P=%d not a power of two", vcount, p)
		}
	}
}

// Property: after any creation the distribution is flat to within one
// partition — the σ-greedy handover from the max cannot stop earlier.
func TestPlanCreateReachesFlatDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pmin := 1 << (1 + rng.Intn(4))
		n := 1 + rng.Intn(100)
		tb := NewTable[int](intLess)
		for v := 0; v < n; v++ {
			tb.Add(v)
			if _, _, err := tb.PlanCreate(v, pmin); err != nil {
				return false
			}
		}
		minC, maxC := math.MaxInt, 0
		for _, c := range tb.Counts() {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		return maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanLeave(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 10, 1: 12, 2: 14})
	moves, err := tb.PlanLeave(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 14 {
		t.Fatalf("moves = %d, want 14", len(moves))
	}
	for _, m := range moves {
		if m.From != 2 {
			t.Fatalf("move %v does not start at the leaving vnode", m)
		}
	}
	c0, _ := tb.Count(0)
	c1, _ := tb.Count(1)
	if c0+c1 != 36 {
		t.Fatalf("total after remove = %d, want 36", c0+c1)
	}
	if d := c0 - c1; d < -1 || d > 1 {
		t.Fatalf("greedy distribution not flat: %d vs %d", c0, c1)
	}
	// First orphan must go to the smallest-count vnode (0 at 10).
	if moves[0].To != 0 {
		t.Fatalf("first dest = %d, want 0", moves[0].To)
	}
	// The leaving vnode stays at zero until its caller removes it, so a
	// move that did not land can be reverted.
	if c, ok := tb.Count(2); !ok || c != 0 {
		t.Fatalf("leaving vnode count = %d,%v, want 0,true", c, ok)
	}
	tb.Revert(moves[0])
	if c, _ := tb.Count(2); c != 1 {
		t.Fatalf("after revert: leaving vnode count = %d, want 1", c)
	}
}

// Property: every move of a leave starts at the leaving vnode and keeps
// the total, for any distribution.
func TestPlanLeaveMovesStartAtLeaver(t *testing.T) {
	f := func(raw []uint8, pick uint8) bool {
		if len(raw) < 2 {
			return true
		}
		tb := NewTable[int](intLess)
		for i, c := range raw {
			_ = tb.Add(i)
			_ = tb.SetCount(i, int(c%32))
		}
		leaver := int(pick) % len(raw)
		total, want := tb.Total(), raw[leaver]%32
		moves, err := tb.PlanLeave(leaver)
		if err != nil || len(moves) != int(want) || tb.Total() != total {
			return false
		}
		for _, m := range moves {
			if m.From != leaver || m.To == leaver {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanLeaveRefusesLastMember(t *testing.T) {
	for _, c := range []int{4, 0} {
		tb := newIntTable(t, map[int]int{7: c})
		if _, err := tb.PlanLeave(7); err == nil {
			t.Fatalf("leave of the last member (%d partitions) must be refused", c)
		}
		if got, ok := tb.Count(7); !ok || got != c {
			t.Fatalf("refused leave changed the table: %d,%v", got, ok)
		}
	}
	tb3 := newIntTable(t, map[int]int{1: 1})
	if _, err := tb3.PlanLeave(99); err == nil {
		t.Fatal("removing absent vnode must error")
	}
}

// fullTable returns a table of n vnodes at count c each.
func fullTable(t *testing.T, n, c int) *Table[int] {
	t.Helper()
	counts := make(map[int]int, n)
	for k := 0; k < n; k++ {
		counts[k] = c
	}
	return newIntTable(t, counts)
}

// A full group's join is a split into two disjoint halves of exactly Vmin
// that together hold every member, and a child of 0 or 1; nothing else is
// planned and the table does not change.
func TestPlanJoinSplitsFullGroup(t *testing.T) {
	const pmin, vmin = 8, 4
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 64; trial++ {
		tb := fullTable(t, 2*vmin, pmin)
		before := tb.Counts()
		plan, err := tb.PlanJoin(100, pmin, vmin, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Halves) != 2 || plan.ScopeSplit || plan.Moves != nil {
			t.Fatalf("full group: plan %+v", plan)
		}
		if plan.Child != 0 && plan.Child != 1 {
			t.Fatalf("child = %d", plan.Child)
		}
		seen := make(map[int]bool)
		for _, half := range plan.Halves {
			if len(half) != vmin {
				t.Fatalf("half of %d members, want Vmin=%d: %v", len(half), vmin, plan.Halves)
			}
			for _, k := range half {
				if seen[k] {
					t.Fatalf("member %d in both halves: %v", k, plan.Halves)
				}
				seen[k] = true
			}
		}
		if len(seen) != 2*vmin {
			t.Fatalf("halves cover %d of %d members", len(seen), 2*vmin)
		}
		if got := tb.Counts(); len(got) != len(before) {
			t.Fatalf("split plan changed the table: %v", got)
		}
	}
}

// Below Vmax the join is PlanCreate's, and vmin 0 bounds nothing.
func TestPlanJoinBelowVmaxIsPlanCreate(t *testing.T) {
	const pmin = 8
	for _, vmin := range []int{4, 0} {
		tb := fullTable(t, 4, pmin)
		want := fullTable(t, 4, pmin)
		_ = want.Add(100)
		wantSplit, wantMoves, _ := want.PlanCreate(100, pmin)
		plan, err := tb.PlanJoin(100, pmin, vmin, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Halves != nil || plan.ScopeSplit != wantSplit || len(plan.Moves) != len(wantMoves) {
			t.Fatalf("vmin=%d: plan %+v, want split=%v moves=%v", vmin, plan, wantSplit, wantMoves)
		}
		for k, c := range want.Counts() {
			if got, _ := tb.Count(k); got != c {
				t.Fatalf("vmin=%d: vnode %d at %d, want %d", vmin, k, got, c)
			}
		}
	}
	// vmin 0 never splits the group, however large.
	tb := fullTable(t, 64, pmin)
	if plan, err := tb.PlanJoin(100, pmin, 0, rand.New(rand.NewSource(1))); err != nil || plan.Halves != nil {
		t.Fatalf("unbounded scope: %+v, %v", plan, err)
	}
}

// A join the planner refuses leaves the table as it was: a duplicate key,
// a bad Pmin, or a table already below G4's floor.
func TestPlanJoinErrorLeavesTable(t *testing.T) {
	for _, tc := range []struct {
		counts map[int]int
		key    int
		pmin   int
	}{
		{map[int]int{0: 8, 1: 8}, 1, 8},
		{map[int]int{0: 8, 1: 8}, 2, 0},
		{map[int]int{0: 4, 1: 4}, 2, 8},
	} {
		tb := newIntTable(t, tc.counts)
		if _, err := tb.PlanJoin(tc.key, tc.pmin, 4, rand.New(rand.NewSource(1))); err == nil {
			t.Fatalf("%+v: join must be refused", tc)
		}
		got := tb.Counts()
		if len(got) != len(tc.counts) {
			t.Fatalf("%+v: table now %v", tc, got)
		}
		for k, c := range tc.counts {
			if got[k] != c {
				t.Fatalf("%+v: table now %v", tc, got)
			}
		}
	}
}

// The same seed gives the same decision sequence: a group grown by 512
// joins, splitting whenever full and following the chosen child, plans
// identically twice, and a different seed plans differently.
func TestPlanJoinDeterministic(t *testing.T) {
	const pmin, vmin = 8, 4
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable[int](intLess)
		var out []string
		for k := 0; k < 512; k++ {
			plan, err := tb.PlanJoin(k, pmin, vmin, rng)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Halves != nil {
				// Follow the chosen child, as the callers do.
				child := NewTable[int](intLess)
				for _, m := range plan.Halves[plan.Child] {
					c, _ := tb.Count(m)
					_ = child.Add(m)
					_ = child.SetCount(m, c)
				}
				tb = child
				out = append(out, fmt.Sprint("split ", plan.Halves, plan.Child))
				if plan, err = tb.PlanJoin(k, pmin, vmin, rng); err != nil {
					t.Fatal(err)
				}
			}
			out = append(out, fmt.Sprint("join ", k, plan.ScopeSplit, plan.Moves))
		}
		return out
	}
	a, b := run(3), run(3)
	if len(a) != len(b) {
		t.Fatalf("decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
	c := run(4)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 3 and 4 planned the same 512 joins")
	}
}

func TestMergeNeeded(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 16, 1: 16})
	if !tb.MergeNeeded(16) {
		t.Fatal("P = V*Pmax must merge: G5 demands all-Pmin at powers of two")
	}
	tb2 := newIntTable(t, map[int]int{0: 17, 1: 16})
	if !tb2.MergeNeeded(16) {
		t.Fatal("P > V*Pmax must require a merge")
	}
	tb3 := newIntTable(t, map[int]int{0: 8, 1: 12, 2: 12})
	if tb3.MergeNeeded(16) {
		t.Fatal("P < V*Pmax must not merge")
	}
	empty := NewTable[int](intLess)
	if empty.MergeNeeded(16) {
		t.Fatal("empty table never needs merge")
	}
}

func TestFlatten(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 20, 1: 8, 2: 8})
	moves := tb.Flatten(8)
	c0, _ := tb.Count(0)
	c1, _ := tb.Count(1)
	c2, _ := tb.Count(2)
	if c0+c1+c2 != 36 {
		t.Fatal("Flatten must conserve partitions")
	}
	if c0-c1 > 1 || c0-c2 > 1 || c1-c0 > 1 || c2-c0 > 1 {
		t.Fatalf("not flat: %d %d %d", c0, c1, c2)
	}
	if len(moves) == 0 {
		t.Fatal("Flatten must have moved something")
	}
	// Flatten never drives a victim below pmin.
	tb2 := newIntTable(t, map[int]int{0: 9, 1: 8})
	if got := tb2.Flatten(9); len(got) != 0 {
		t.Fatalf("Flatten must respect pmin floor, moved %v", got)
	}
}

func TestRelStdDev(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 8, 1: 8, 2: 8})
	if s := tb.RelStdDev(); s != 0 {
		t.Fatalf("flat table σ̄ = %v, want 0", s)
	}
	var empty Table[int]
	if empty.RelStdDev() != 0 {
		t.Fatal("empty table σ̄ must be 0")
	}
	zero := newIntTable(t, map[int]int{0: 0})
	if zero.RelStdDev() != 0 {
		t.Fatal("zero-mean table σ̄ must be 0")
	}
}

func TestCheckBounds(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 8, 1: 16})
	if err := tb.CheckBounds(8, 16); err != nil {
		t.Fatal(err)
	}
	if err := tb.CheckBounds(9, 16); err == nil {
		t.Fatal("count below pmin must fail bounds check")
	}
	if err := tb.CheckBounds(8, 15); err == nil {
		t.Fatal("count above pmax must fail bounds check")
	}
}

func TestDoubleAllAndTotals(t *testing.T) {
	tb := newIntTable(t, map[int]int{0: 3, 1: 5})
	tb.DoubleAll()
	if tot := tb.Total(); tot != 16 {
		t.Fatalf("Total after DoubleAll = %d, want 16", tot)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	counts := tb.Counts()
	if counts[0] != 6 || counts[1] != 10 {
		t.Fatalf("Counts = %v", counts)
	}
	// Counts returns a copy.
	counts[0] = 999
	if c, _ := tb.Count(0); c != 6 {
		t.Fatal("Counts must return a copy")
	}
}
