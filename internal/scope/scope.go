package scope

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"dbdht/internal/balance"
	"dbdht/internal/hashspace"
)

// ErrIncompleteTiling is reported by partition coalescing when some sibling
// partition lives outside the scope.  A scope that covers all of R_h (the
// global approach) always owns complete sibling pairs; a *group* scope owns
// a scattered subset of R_h, so after heavy shrink a merge may be
// impossible.  RemoveVnode treats this as a benign state: G4's upper bound
// is checked only while a scope covers R_h.
var ErrIncompleteTiling = errors.New("scope: sibling partition outside scope; cannot coalesce")

// VnodeID identifies a vnode.  IDs are assigned by the embedding DHT and are
// unique DHT-wide (not merely scope-wide), so vnodes can migrate between
// scopes during group splits without renaming.
type VnodeID int

// Observer receives structural-change events as a scope mutates.  The local
// approach uses it to maintain a DHT-wide partition→owner index.
// Implementations must not call back into the scope.  A nil Observer is
// valid.
type Observer interface {
	// PartitionMoved fires when partition p changes owner (a handover
	// scheduled by the balancement algorithm, §2.5 step 4a).
	PartitionMoved(p hashspace.Partition, from, to VnodeID)
	// PartitionSplit fires when p is replaced by its two children, both
	// staying with the same owner (the scope-wide binary split of §2.5).
	PartitionSplit(p hashspace.Partition, owner VnodeID)
	// PartitionMerged fires when the children of p coalesce back into p,
	// owned by owner (partition coalescing after vnode removal; an
	// extension — the paper only sketches dynamic leave as feature (c)).
	PartitionMerged(p hashspace.Partition, owner VnodeID)
	// VnodeRemoved fires when a vnode leaves the scope after its partitions
	// were reassigned.
	VnodeRemoved(v VnodeID)
}

// Stats counts the structural work a scope has performed; the evaluation
// harness reports these as the "cost" side of the balancement-quality
// tradeoff (§4.1.2 discusses storage/time resources).
type Stats struct {
	// Handovers is the number of single-partition ownership transfers.
	Handovers int
	// Splits is the number of scope-wide binary splits (each multiplies the
	// partition count by two).
	Splits int
	// Merges is the number of scope-wide coalescings (each halves it).
	Merges int
}

// Scope is one balancement domain.  It is not safe for concurrent use; the
// paper serializes vnode creations within a group (§3.6).
type Scope struct {
	pmin, pmax int
	level      uint8 // common splitlevel of every partition (G3/G3′)
	table      *balance.Table[VnodeID]
	sets       map[VnodeID]*hashspace.Set
	index      map[hashspace.Partition]VnodeID
	rng        *rand.Rand
	obs        Observer
	stats      Stats
}

// New returns an empty scope.  pmin must be a power of two (invariant G4);
// rng drives the only nondeterministic choice the paper leaves open — which
// victim partition a victim vnode hands over.  obs may be nil.
func New(pmin int, rng *rand.Rand, obs Observer) (*Scope, error) {
	if pmin < 1 || pmin&(pmin-1) != 0 {
		return nil, fmt.Errorf("scope: Pmin must be a positive power of two, got %d", pmin)
	}
	if rng == nil {
		return nil, fmt.Errorf("scope: rng must not be nil")
	}
	return &Scope{
		pmin:  pmin,
		pmax:  2 * pmin,
		table: balance.NewTable[VnodeID](func(a, b VnodeID) bool { return a < b }),
		sets:  make(map[VnodeID]*hashspace.Set),
		index: make(map[hashspace.Partition]VnodeID),
		rng:   rng,
		obs:   obs,
	}, nil
}

// Pmin returns the scope's Pmin parameter.
func (s *Scope) Pmin() int { return s.pmin }

// Pmax returns 2·Pmin (invariant G4).
func (s *Scope) Pmax() int { return s.pmax }

// Level returns the common splitlevel l (or l_g) of the scope's partitions.
func (s *Scope) Level() uint8 { return s.level }

// Vnodes returns the scope's vnode IDs in ascending order.
func (s *Scope) Vnodes() []VnodeID { return s.table.Keys() }

// Len returns the number of vnodes (V or V_g).
func (s *Scope) Len() int { return s.table.Len() }

// TotalPartitions returns P (or P_g), the scope's overall partition count.
func (s *Scope) TotalPartitions() int { return s.table.Total() }

// Stats returns the cumulative structural-work counters.
func (s *Scope) Stats() Stats { return s.stats }

// PartitionCount returns P_v for a vnode, and whether it is a member.
func (s *Scope) PartitionCount(v VnodeID) (int, bool) { return s.table.Count(v) }

// Counts returns a copy of the scope's PDR: vnode → partition count.
func (s *Scope) Counts() map[VnodeID]int { return s.table.Counts() }

// unitQuota returns the quota of one partition at the scope's level.
func (s *Scope) unitQuota() float64 {
	return hashspace.Partition{Level: s.level}.Quota()
}

// Quota returns Q_v = P_v · 2^(−level), the fraction of R_h held by v.
func (s *Scope) Quota(v VnodeID) (float64, bool) {
	c, ok := s.table.Count(v)
	if !ok {
		return 0, false
	}
	return float64(c) * s.unitQuota(), true
}

// TotalQuota returns the fraction of R_h covered by the whole scope — the
// group quota Q_g of §4.2.1 when the scope is a group, or 1.0 for the
// global approach.
func (s *Scope) TotalQuota() float64 {
	return float64(s.table.Total()) * s.unitQuota()
}

// Quotas returns every vnode's quota in ascending vnode order.
func (s *Scope) Quotas() []float64 {
	ids := s.table.Keys()
	out := make([]float64, len(ids))
	unit := s.unitQuota()
	for i, v := range ids {
		c, _ := s.table.Count(v)
		out[i] = float64(c) * unit
	}
	return out
}

// Partitions returns the partitions of vnode v, sorted, or nil if absent.
func (s *Scope) Partitions(v VnodeID) []hashspace.Partition {
	set, ok := s.sets[v]
	if !ok {
		return nil
	}
	return set.Partitions()
}

// Lookup returns the vnode owning index i.  Because every partition shares
// the scope's level, one index probe suffices.  ok is false when the scope
// does not own the containing partition (it belongs to another group).
func (s *Scope) Lookup(i hashspace.Index) (VnodeID, bool) {
	v, ok := s.index[hashspace.Containing(i, s.level)]
	return v, ok
}

// Owns reports whether partition p is held by this scope, and by which vnode.
func (s *Scope) Owns(p hashspace.Partition) (VnodeID, bool) {
	v, ok := s.index[p]
	return v, ok
}

// Bootstrap installs the scope's first vnode, materializing invariant G4's
// floor: the vnode receives the whole of R_h divided into Pmin partitions at
// level log2(Pmin).  It fails if the scope is non-empty.
func (s *Scope) Bootstrap(v VnodeID) error {
	if s.table.Len() != 0 {
		return fmt.Errorf("scope: Bootstrap on non-empty scope")
	}
	if err := s.table.Add(v); err != nil {
		return err
	}
	if _, _, err := s.table.PlanCreate(v, s.pmin); err != nil {
		return err
	}
	s.level = uint8(bits.TrailingZeros(uint(s.pmin)))
	set := hashspace.NewSet()
	for pre := uint64(0); pre < uint64(s.pmin); pre++ {
		p := hashspace.Partition{Prefix: pre, Level: s.level}
		if err := set.Add(p); err != nil {
			return fmt.Errorf("scope: bootstrap tiling: %w", err)
		}
		s.index[p] = v
	}
	s.sets[v] = set
	return nil
}

// AddVnode runs the §2.5 creation algorithm for a new vnode v in a scope
// with no size bound (the global approach).
func (s *Scope) AddVnode(v VnodeID) error {
	_, err := s.Join(v, 0)
	return err
}

// Join plans v's arrival with balance's group planner (Table.PlanJoin) in a
// scope of at most 2·vmin vnodes and applies the plan: the scope-wide
// binary split if the scope sits at the G5/G5′ floor, then the
// σ-decreasing handovers.  When the scope is full it changes nothing and
// returns the planner's halves and child; the caller splits the group.
func (s *Scope) Join(v VnodeID, vmin int) (balance.Join[VnodeID], error) {
	if s.table.Len() == 0 {
		return balance.Join[VnodeID]{}, s.Bootstrap(v)
	}
	plan, err := s.table.PlanJoin(v, s.pmin, vmin, s.rng)
	if err != nil {
		return plan, fmt.Errorf("scope: create vnode %d: %w", v, err)
	}
	if plan.Halves != nil {
		return plan, nil
	}
	s.sets[v] = hashspace.NewSet()
	if plan.ScopeSplit {
		// The plan doubled the PDR counts; materialize on the real sets.
		s.splitAll()
	}
	for _, m := range plan.Moves {
		if err := s.moveOne(m.From, m.To); err != nil {
			return plan, err
		}
	}
	return plan, nil
}

// RemoveVnode reassigns v's partitions greedily to the least-loaded vnodes
// (Table.PlanLeave, which refuses to empty the scope), coalesces partitions
// if the departure breaches G4's upper bound, and flattens the result.  A
// scope that covers only part of R_h may be unable to coalesce; its counts
// then stay above Pmax until it regrows.
func (s *Scope) RemoveVnode(v VnodeID) error {
	set, ok := s.sets[v]
	if !ok {
		return fmt.Errorf("scope: vnode %d not present", v)
	}
	moves, err := s.table.PlanLeave(v)
	if err != nil {
		return err
	}
	parts := set.Partitions()
	if len(parts) != len(moves) {
		return fmt.Errorf("scope: plan/set mismatch removing %d: %d parts, %d moves", v, len(parts), len(moves))
	}
	for i, p := range parts {
		if err := s.transfer(p, v, moves[i].To); err != nil {
			return err
		}
	}
	if _, err := s.table.Remove(v); err != nil {
		return err
	}
	delete(s.sets, v)
	if s.obs != nil {
		s.obs.VnodeRemoved(v)
	}
	for s.table.MergeNeeded(s.pmax) {
		if err := s.mergeAll(); errors.Is(err, ErrIncompleteTiling) {
			break
		} else if err != nil {
			return err
		}
	}
	for _, m := range s.table.Flatten(s.pmin) {
		if err := s.moveOne(m.From, m.To); err != nil {
			return err
		}
	}
	return nil
}

// moveOne hands over one partition from one vnode to another, choosing the
// victim partition uniformly at random (the paper leaves the choice open in
// §2.5 step 4a).  The PDR counts were already updated by the planner.
func (s *Scope) moveOne(from, to VnodeID) error {
	fromSet, ok := s.sets[from]
	if !ok || fromSet.Len() == 0 {
		return fmt.Errorf("scope: no partition to move from vnode %d", from)
	}
	parts := fromSet.Partitions()
	p := parts[s.rng.Intn(len(parts))]
	return s.transfer(p, from, to)
}

// transfer moves a specific partition between vnodes' sets and updates the
// index; PDR counts are the planner's responsibility.
func (s *Scope) transfer(p hashspace.Partition, from, to VnodeID) error {
	fromSet, ok := s.sets[from]
	if !ok {
		return fmt.Errorf("scope: transfer from absent vnode %d", from)
	}
	toSet, ok := s.sets[to]
	if !ok {
		return fmt.Errorf("scope: transfer to absent vnode %d", to)
	}
	if !fromSet.Remove(p) {
		return fmt.Errorf("scope: vnode %d does not own %v", from, p)
	}
	if err := toSet.Add(p); err != nil {
		return fmt.Errorf("scope: receiving vnode %d: %w", to, err)
	}
	s.index[p] = to
	s.stats.Handovers++
	if s.obs != nil {
		s.obs.PartitionMoved(p, from, to)
	}
	return nil
}

// splitAll performs the scope-wide binary split: every partition of every
// vnode splits in two, doubling every P_v to Pmax and incrementing the
// common splitlevel (§2.5; the PDR was already doubled by the planner).
func (s *Scope) splitAll() {
	for v, set := range s.sets {
		old := set.Partitions()
		next := hashspace.NewSet()
		for _, p := range old {
			lo, hi := p.Split()
			// Adds into a fresh set of strictly deeper level cannot fail.
			if err := next.Add(lo); err != nil {
				panic(fmt.Sprintf("scope: splitAll lo: %v", err))
			}
			if err := next.Add(hi); err != nil {
				panic(fmt.Sprintf("scope: splitAll hi: %v", err))
			}
			delete(s.index, p)
			s.index[lo] = v
			s.index[hi] = v
			if s.obs != nil {
				s.obs.PartitionSplit(p, v)
			}
		}
		s.sets[v] = next
	}
	s.level++
	s.stats.Splits++
}

// mergeAll coalesces every sibling pair back into its parent, halving the
// scope's partition count and decrementing the level.  The merged partition
// stays with the owner of the low child; when the high child lived elsewhere
// that is an ownership transfer of the high half.  Afterwards the PDR is
// recomputed from the materialized sets.
func (s *Scope) mergeAll() error {
	if s.level == 0 {
		return fmt.Errorf("scope: cannot merge below level 0")
	}
	type pair struct{ lo, hi VnodeID }
	pairs := make(map[hashspace.Partition]*pair)
	for v, set := range s.sets {
		for _, p := range set.Partitions() {
			parent := p.Parent()
			pr, ok := pairs[parent]
			if !ok {
				pr = &pair{lo: -1, hi: -1}
				pairs[parent] = pr
			}
			if p.IsLowChild() {
				pr.lo = v
			} else {
				pr.hi = v
			}
		}
	}
	// Deterministic order over parents.
	parents := make([]hashspace.Partition, 0, len(pairs))
	for p := range pairs {
		parents = append(parents, p)
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].Prefix < parents[j].Prefix })
	// Verify completeness before mutating anything, so a failed merge
	// leaves the scope untouched.
	for _, parent := range parents {
		if pr := pairs[parent]; pr.lo < 0 || pr.hi < 0 {
			return fmt.Errorf("scope: merging %v: %w", parent, ErrIncompleteTiling)
		}
	}
	for _, parent := range parents {
		pr := pairs[parent]
		lo, hi := parent.Split()
		owner := pr.lo
		s.sets[pr.lo].Remove(lo)
		s.sets[pr.hi].Remove(hi)
		delete(s.index, lo)
		delete(s.index, hi)
		if err := s.sets[owner].Add(parent); err != nil {
			return fmt.Errorf("scope: merge into %v: %w", parent, err)
		}
		s.index[parent] = owner
		if s.obs != nil {
			s.obs.PartitionMerged(parent, owner)
		}
	}
	s.level--
	s.stats.Merges++
	for v, set := range s.sets {
		if err := s.table.SetCount(v, set.Len()); err != nil {
			return err
		}
	}
	return nil
}

// Detach removes vnode v from the scope *without* reassigning partitions;
// the vnode keeps its set.  Used by group splits (§3.7), where vnodes move
// wholesale into a child group.  Returns the vnode's partition set.
func (s *Scope) Detach(v VnodeID) (*hashspace.Set, error) {
	set, ok := s.sets[v]
	if !ok {
		return nil, fmt.Errorf("scope: detach absent vnode %d", v)
	}
	if _, err := s.table.Remove(v); err != nil {
		return nil, err
	}
	delete(s.sets, v)
	for _, p := range set.Partitions() {
		delete(s.index, p)
	}
	return set, nil
}

// Attach inserts a vnode carrying an existing partition set, as produced by
// Detach on a sibling scope.  The set's partitions must sit at the scope's
// level; an empty scope adopts the incoming level.
func (s *Scope) Attach(v VnodeID, set *hashspace.Set, level uint8) error {
	if _, ok := s.sets[v]; ok {
		return fmt.Errorf("scope: attach duplicate vnode %d", v)
	}
	if s.table.Len() == 0 {
		s.level = level
	} else if level != s.level {
		return fmt.Errorf("scope: attach level %d into scope at level %d", level, s.level)
	}
	if err := s.table.Add(v); err != nil {
		return err
	}
	if err := s.table.SetCount(v, set.Len()); err != nil {
		return err
	}
	s.sets[v] = set
	for _, p := range set.Partitions() {
		s.index[p] = v
	}
	return nil
}

// CheckInvariants verifies the paper's per-scope invariants: G2/G2′ (P is a
// power of two), G3/G3′ (uniform splitlevel), G4/G4′ (Pmin ≤ P_v ≤ Pmax),
// G5/G5′ (V a power of two ⇒ all P_v = Pmin), plus internal consistency of
// PDR counts, sets and index.  An empty scope is trivially valid.
func (s *Scope) CheckInvariants() error {
	if s.table.Len() == 0 {
		return nil
	}
	p := s.table.Total()
	if p&(p-1) != 0 {
		return fmt.Errorf("scope: G2 violated: P=%d not a power of two", p)
	}
	upper := s.pmax
	if bits.TrailingZeros(uint(p)) != int(s.level) {
		// A scope that covers only part of R_h may be unable to coalesce
		// (ErrIncompleteTiling), so its counts may exceed Pmax; the lower
		// bound Pmin remains strict.
		upper = math.MaxInt
	}
	if err := s.table.CheckBounds(s.pmin, upper); err != nil {
		return fmt.Errorf("scope: G4 violated: %w", err)
	}
	v := s.table.Len()
	if v&(v-1) == 0 && p == v*s.pmin {
		// G5 in its canonical growth form: at power-of-two V with the
		// canonical partition total, every vnode holds exactly Pmin.  (A
		// scope that could not coalesce can legitimately hold more.)
		for _, id := range s.table.Keys() {
			if c, _ := s.table.Count(id); c != s.pmin {
				return fmt.Errorf("scope: G5 violated: V=%d power of two but vnode %d has %d ≠ Pmin", v, id, c)
			}
		}
	}
	idxCount := 0
	for id, set := range s.sets {
		c, ok := s.table.Count(id)
		if !ok {
			return fmt.Errorf("scope: set for vnode %d missing from PDR", id)
		}
		if set.Len() != c {
			return fmt.Errorf("scope: vnode %d PDR count %d ≠ set size %d", id, c, set.Len())
		}
		for _, part := range set.Partitions() {
			if part.Level != s.level {
				return fmt.Errorf("scope: G3 violated: partition %v at level %d, scope at %d", part, part.Level, s.level)
			}
			owner, ok := s.index[part]
			if !ok || owner != id {
				return fmt.Errorf("scope: index inconsistent for %v: owner %d, set says %d", part, owner, id)
			}
			idxCount++
		}
	}
	if idxCount != len(s.index) {
		return fmt.Errorf("scope: index has %d entries, sets have %d partitions", len(s.index), idxCount)
	}
	if len(s.sets) != s.table.Len() {
		return fmt.Errorf("scope: %d sets vs %d PDR entries", len(s.sets), s.table.Len())
	}
	return nil
}
