package balance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Table is a partition distribution record: vnode key → partition count.
// Selection among equal counts is deterministic, ordered by the comparison
// function supplied at construction, so simulations are exactly reproducible.
//
// Table is not safe for concurrent use; in the cluster runtime each group's
// leader owns its LPDR.
type Table[K comparable] struct {
	counts map[K]int
	less   func(a, b K) bool
}

// NewTable returns an empty table whose tie-breaking order is defined by
// less (a strict weak ordering over keys).
func NewTable[K comparable](less func(a, b K) bool) *Table[K] {
	return &Table[K]{counts: make(map[K]int), less: less}
}

// Add registers a vnode with zero partitions (step 1 of the §2.5 algorithm).
func (t *Table[K]) Add(k K) error {
	if _, ok := t.counts[k]; ok {
		return fmt.Errorf("balance: vnode %v already in table", k)
	}
	t.counts[k] = 0
	return nil
}

// Remove deletes a vnode, returning its final count.
func (t *Table[K]) Remove(k K) (int, error) {
	c, ok := t.counts[k]
	if !ok {
		return 0, fmt.Errorf("balance: vnode %v not in table", k)
	}
	delete(t.counts, k)
	return c, nil
}

// SetCount overwrites a vnode's count; used at bootstrap (the first vnode
// starts with Pmin partitions) and after merges recompute ownership.
func (t *Table[K]) SetCount(k K, c int) error {
	if _, ok := t.counts[k]; !ok {
		return fmt.Errorf("balance: vnode %v not in table", k)
	}
	if c < 0 {
		return fmt.Errorf("balance: negative count %d for vnode %v", c, k)
	}
	t.counts[k] = c
	return nil
}

// Count returns the count for k and whether k is present.
func (t *Table[K]) Count(k K) (int, bool) {
	c, ok := t.counts[k]
	return c, ok
}

// Len returns the number of vnodes (V, or V_g for a group LPDR).
func (t *Table[K]) Len() int { return len(t.counts) }

// Total returns the overall number of partitions (P, or P_g).
func (t *Table[K]) Total() int {
	sum := 0
	for _, c := range t.counts {
		sum += c
	}
	return sum
}

// Keys returns all vnode keys in the table's deterministic order.
func (t *Table[K]) Keys() []K {
	out := make([]K, 0, len(t.counts))
	for k := range t.counts {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return t.less(out[i], out[j]) })
	return out
}

// Counts returns a copy of the distribution keyed by vnode.
func (t *Table[K]) Counts() map[K]int {
	out := make(map[K]int, len(t.counts))
	for k, c := range t.counts {
		out[k] = c
	}
	return out
}

// Max returns the vnode with the most partitions — the "victim vnode" of
// step 3 — breaking ties toward the smallest key.  ok is false when empty.
func (t *Table[K]) Max() (k K, c int, ok bool) {
	first := true
	for key, cnt := range t.counts {
		if first || cnt > c || (cnt == c && t.less(key, k)) {
			k, c, ok = key, cnt, true
			first = false
		}
	}
	return k, c, ok
}

// Min returns the vnode with the fewest partitions, breaking ties toward the
// smallest key.  ok is false when empty.
func (t *Table[K]) Min() (k K, c int, ok bool) {
	first := true
	for key, cnt := range t.counts {
		if first || cnt < c || (cnt == c && t.less(key, k)) {
			k, c, ok = key, cnt, true
			first = false
		}
	}
	return k, c, ok
}

// DoubleAll doubles every count; callers invoke it when performing the
// scope-wide binary split of §2.5 ("all the older vnodes binary split their
// own partitions, doubling its number to P_v = Pmax").
func (t *Table[K]) DoubleAll() {
	for k := range t.counts {
		t.counts[k] *= 2
	}
}

// RelStdDev returns σ̄(P_v, P̄_v), the relative standard deviation of the
// counts — the quality metric of the scope per §2.4.
func (t *Table[K]) RelStdDev() float64 {
	if len(t.counts) == 0 {
		return 0
	}
	mean := float64(t.Total()) / float64(len(t.counts))
	if mean == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range t.counts {
		d := float64(c) - mean
		sum += d * d
	}
	return math.Sqrt(sum/float64(len(t.counts))) / mean
}

// CheckBounds verifies invariant G4/G4′: Pmin ≤ P_v ≤ Pmax for every vnode.
func (t *Table[K]) CheckBounds(pmin, pmax int) error {
	for k, c := range t.counts {
		if c < pmin || c > pmax {
			return fmt.Errorf("balance: vnode %v has %d partitions, outside [%d,%d]", k, c, pmin, pmax)
		}
	}
	return nil
}

// Move records the transfer of one partition between vnodes.
type Move[K comparable] struct {
	From, To K
}

// Revert takes back a planned move that did not happen: the partition
// stays with From.
func (t *Table[K]) Revert(m Move[K]) {
	t.counts[m.From]++
	t.counts[m.To]--
}

// movesDecreasesSigma reports whether moving one partition from a vnode with
// a partitions to one with b decreases σ(P_v, P̄_v).  The mean is unchanged
// by a move, so comparing variances suffices:
//
//	(a−1)² + (b+1)² < a² + b²  ⇔  b < a − 1  ⇔  a − b ≥ 2.
//
// Tests cross-check this closed form against an explicit σ computation.
func moveDecreasesSigma(a, b int) bool { return a-b >= 2 }

// PlanCreate runs the §2.5 creation algorithm for newKey, which must already
// be registered (via Add) with zero partitions:
//
//  1. if the current maximum count equals pmin the whole scope performs a
//     binary split first (split=true; counts double to Pmax) — this is the
//     G5/G5′ power-of-two moment when no vnode may drop below Pmin;
//  2. repeatedly pick the victim vnode (largest count) and hand one
//     partition to the new vnode while doing so decreases σ(P_v, P̄_v).
//
// The returned moves are independent — each hands one victim partition to
// newKey — so a caller may run them all at once.  The table is updated in
// place as if every move landed; Revert takes back one that did not.
func (t *Table[K]) PlanCreate(newKey K, pmin int) (split bool, moves []Move[K], err error) {
	if pmin < 1 {
		return false, nil, fmt.Errorf("balance: pmin must be ≥ 1, got %d", pmin)
	}
	c, ok := t.counts[newKey]
	if !ok {
		return false, nil, fmt.Errorf("balance: new vnode %v not registered", newKey)
	}
	if c != 0 {
		return false, nil, fmt.Errorf("balance: new vnode %v starts with %d partitions, want 0", newKey, c)
	}
	if len(t.counts) == 1 {
		// First vnode of the scope: it receives the whole range pre-split
		// into Pmin partitions; no victims exist.
		t.counts[newKey] = pmin
		return false, nil, nil
	}
	if _, maxC, _ := t.maxExcluding(newKey); maxC == pmin {
		// Handing over would violate G4's lower bound: split the scope.
		t.DoubleAll()
		split = true
	}
	for {
		victim, maxC, ok := t.maxExcluding(newKey)
		if !ok {
			break
		}
		if !moveDecreasesSigma(maxC, t.counts[newKey]) {
			break
		}
		if maxC <= pmin {
			// Defensive guard: the σ criterion alone never drives a victim
			// below Pmin (see package tests), but G4 is an invariant and we
			// refuse to break it rather than silently corrupt the scope.
			return split, moves, fmt.Errorf("balance: victim %v at lower bound %d", victim, pmin)
		}
		t.counts[victim]--
		t.counts[newKey]++
		moves = append(moves, Move[K]{From: victim, To: newKey})
	}
	return split, moves, nil
}

// maxExcluding is Max over all vnodes except skip.
func (t *Table[K]) maxExcluding(skip K) (k K, c int, ok bool) {
	first := true
	for key, cnt := range t.counts {
		if key == skip {
			continue
		}
		if first || cnt > c || (cnt == c && t.less(key, k)) {
			k, c, ok = key, cnt, true
			first = false
		}
	}
	return k, c, ok
}

// PlanLeave plans the departure of vnode k: each of its partitions goes to
// the vnode with the fewest partitions at that moment (the σ-minimizing
// greedy placement; the symmetric counterpart of PlanCreate, used for the
// base model's dynamic leave — feature (c) of §1).  It returns one move out
// of k per partition, and refuses to plan the departure of the scope's last
// member, since dissolving a group is undefined in the model.  The table is
// updated as if every move landed, with k left at zero; Revert takes back a
// move that did not, and the caller removes k once it is empty.
// Destinations may exceed Pmax; callers detect that via MergeNeeded and
// coalesce.
func (t *Table[K]) PlanLeave(k K) ([]Move[K], error) {
	c, ok := t.counts[k]
	if !ok {
		return nil, fmt.Errorf("balance: vnode %v not in table", k)
	}
	if len(t.counts) == 1 {
		return nil, fmt.Errorf("balance: vnode %v is the last member of its group; dissolving a group is undefined in the model", k)
	}
	delete(t.counts, k)
	moves := make([]Move[K], 0, c)
	for i := 0; i < c; i++ {
		dest, _, _ := t.Min()
		t.counts[dest]++
		moves = append(moves, Move[K]{From: k, To: dest})
	}
	t.counts[k] = 0
	return moves, nil
}

// Join is a group's decision for one joining vnode (§3.6, §3.7).
type Join[K comparable] struct {
	// Halves is nil unless the group is full.  Then the group splits into
	// these two random halves of Vmin members, and the join goes to
	// Halves[Child], where it is planned again; nothing else is planned.
	Halves [][]K
	Child  int
	// Otherwise the join lands in this group: ScopeSplit and Moves are
	// PlanCreate's scope-wide binary split and handovers.
	ScopeSplit bool
	Moves      []Move[K]
}

// PlanJoin decides how newKey joins a group whose size bound is
// Vmax = 2·vmin (invariant L2; vmin 0 bounds nothing, as in the global
// approach).  A full group splits (§3.7): its members are shuffled into
// two halves of vmin and a random child is drawn to take the join, in that
// order, from rng, the only randomness the plan uses; the table is left as
// it was.  Otherwise newKey is registered and PlanCreate plans its
// arrival, updating the table as if every move landed.  On error the table
// is left as it was.
func (t *Table[K]) PlanJoin(newKey K, pmin, vmin int, rng *rand.Rand) (Join[K], error) {
	if vmin > 0 && len(t.counts) >= 2*vmin {
		members := t.Keys()
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		return Join[K]{Halves: [][]K{members[:vmin], members[vmin:]}, Child: rng.Intn(2)}, nil
	}
	if err := t.Add(newKey); err != nil {
		return Join[K]{}, err
	}
	split, moves, err := t.PlanCreate(newKey, pmin)
	if err != nil {
		for _, m := range moves {
			t.Revert(m)
		}
		if split {
			for k := range t.counts {
				t.counts[k] /= 2
			}
		}
		delete(t.counts, newKey)
		return Join[K]{}, err
	}
	return Join[K]{ScopeSplit: split, Moves: moves}, nil
}

// MergeNeeded reports whether the scope must halve its partition count after
// vnodes left.  Two cases: P > V·Pmax, where even the flattest distribution
// violates G4's upper bound; and P = V·Pmax, where V is necessarily a power
// of two (P and Pmax are powers of two) and invariant G5 demands all vnodes
// hold exactly Pmin — reached by halving P and flattening.  On the growth
// path P = V·Pmin at powers of two, so this never fires during creations.
func (t *Table[K]) MergeNeeded(pmax int) bool {
	return len(t.counts) > 0 && t.Total() >= len(t.counts)*pmax
}

// WeightedTargets apportions total discrete units (the cluster runtime
// uses it for per-snode vnode enrollment slots) across keys proportionally
// to their positive capacity weights, by the largest-remainder method:
// every key gets the floor of its exact share, and the leftover units go
// to the largest fractional remainders (ties broken toward the smallest
// key, keeping the apportionment deterministic).  When total ≥ len(weights)
// every key is guaranteed at least one unit — a zero target would evict a
// host from the DHT entirely, which is an operator decision, not a
// balancement one — with the units taken from the largest targets.
func WeightedTargets[K comparable](weights map[K]float64, total int, less func(a, b K) bool) (map[K]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("balance: negative total %d", total)
	}
	sum := 0.0
	for k, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("balance: weight of %v must be a positive finite number, got %v", k, w)
		}
		sum += w
	}
	out := make(map[K]int, len(weights))
	if len(weights) == 0 || total == 0 {
		for k := range weights {
			out[k] = 0
		}
		return out, nil
	}
	type ent struct {
		k    K
		frac float64
	}
	ents := make([]ent, 0, len(weights))
	assigned := 0
	for k, w := range weights {
		share := float64(total) * w / sum
		fl := int(math.Floor(share))
		out[k] = fl
		assigned += fl
		ents = append(ents, ent{k: k, frac: share - float64(fl)})
	}
	sort.Slice(ents, func(i, j int) bool {
		if ents[i].frac != ents[j].frac {
			return ents[i].frac > ents[j].frac
		}
		return less(ents[i].k, ents[j].k)
	})
	for i := 0; assigned < total; i++ {
		out[ents[i%len(ents)].k]++
		assigned++
	}
	// Min-one fixup: lift zero targets by taking from the current maxima.
	if total >= len(weights) {
		for k, c := range out {
			if c > 0 {
				continue
			}
			var maxK K
			maxC := -1
			for k2, c2 := range out {
				if c2 > maxC || (c2 == maxC && less(k2, maxK)) {
					maxK, maxC = k2, c2
				}
			}
			if maxC > 1 {
				out[maxK]--
				out[k] = 1
			}
		}
	}
	return out, nil
}

// Flatten repeatedly moves one partition from the current maximum to the
// current minimum while that decreases σ, never driving a victim below pmin.
// It is used after merges and removals to restore the flattest reachable
// distribution; on creation paths PlanCreate already leaves the scope flat.
func (t *Table[K]) Flatten(pmin int) []Move[K] {
	var moves []Move[K]
	for {
		from, maxC, ok1 := t.Max()
		to, minC, ok2 := t.Min()
		if !ok1 || !ok2 || from == to {
			break
		}
		if !moveDecreasesSigma(maxC, minC) || maxC <= pmin {
			break
		}
		t.counts[from]--
		t.counts[to]++
		moves = append(moves, Move[K]{From: from, To: to})
	}
	return moves
}
