package core

import (
	"fmt"
	"math/rand"
	"sort"

	"dbdht/internal/balance"
	"dbdht/internal/hashspace"
	"dbdht/internal/metrics"
	"dbdht/internal/scope"
)

// VnodeID identifies a vnode; IDs are unique DHT-wide so vnodes keep their
// identity when groups split.
type VnodeID = scope.VnodeID

// Config carries the two parameters that govern the local approach (§4.1):
// Pmin sets the grain of balancement inside each group, Vmin the size of
// groups.  Both must be powers of two; Pmax = 2·Pmin and Vmax = 2·Vmin
// follow from invariants G4′ and L2.
type Config struct {
	Pmin int
	Vmin int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Pmin < 1 || c.Pmin&(c.Pmin-1) != 0 {
		return fmt.Errorf("core: Pmin must be a positive power of two, got %d", c.Pmin)
	}
	if c.Vmin < 1 || c.Vmin&(c.Vmin-1) != 0 {
		return fmt.Errorf("core: Vmin must be a positive power of two, got %d", c.Vmin)
	}
	return nil
}

// Group couples a group identifier with its balancement scope.  The scope's
// PDR plays the role of the group's LPDR (§3.2); the scope's level is the
// group's common splitlevel l_g (invariant G3′).
type Group struct {
	id GroupID
	sc *scope.Scope
}

// ID returns the group's identifier.
func (g *Group) ID() GroupID { return g.id }

// Vnodes returns the group's vnode count V_g.
func (g *Group) Vnodes() int { return g.sc.Len() }

// Level returns the group's common splitlevel l_g.
func (g *Group) Level() uint8 { return g.sc.Level() }

// Quota returns the group quota Q_g, the fraction of R_h covered by all the
// group's vnodes (§4.2.1).
func (g *Group) Quota() float64 { return g.sc.TotalQuota() }

// LPDR returns a copy of the group's Local Partition Distribution Record.
func (g *Group) LPDR() map[VnodeID]int { return g.sc.Counts() }

// Stats carries the cumulative structural work performed by the DHT.
type Stats struct {
	// Handovers, PartitionSplits and PartitionMerges aggregate the per-scope
	// counters across all groups (including dissolved ones).
	Handovers       int
	PartitionSplits int
	PartitionMerges int
	// GroupSplits counts group divisions (§3.7); GroupCreations counts
	// groups ever created (the first group plus two per split).
	GroupSplits    int
	GroupCreations int
}

// DHT is a local-approach DHT.  It is not safe for concurrent use; the
// cluster runtime (package cluster) layers real parallelism on top by
// running one LPDR per group leader, with the same planner (package
// balance): simultaneous balancement events in different groups, serial
// within a group, as the paper proposes (§3.1).
type DHT struct {
	cfg        Config
	rng        *rand.Rand
	groups     map[GroupID]*Group
	vnodeGroup map[VnodeID]GroupID
	index      map[hashspace.Partition]VnodeID
	levels     map[uint8]int // refcount of group splitlevels, for lookups
	nextID     VnodeID
	stats      Stats
	// folded remembers dissolved groups' scope counters, so they keep
	// their contribution.
	folded scope.Stats
}

// indexObserver keeps the DHT-wide partition→vnode index in sync with every
// group scope's structural changes.
type indexObserver struct{ d *DHT }

func (o indexObserver) PartitionMoved(p hashspace.Partition, from, to VnodeID) {
	o.d.index[p] = to
}

func (o indexObserver) PartitionSplit(p hashspace.Partition, owner VnodeID) {
	delete(o.d.index, p)
	lo, hi := p.Split()
	o.d.index[lo] = owner
	o.d.index[hi] = owner
}

func (o indexObserver) PartitionMerged(p hashspace.Partition, owner VnodeID) {
	lo, hi := p.Split()
	delete(o.d.index, lo)
	delete(o.d.index, hi)
	o.d.index[p] = owner
}

func (o indexObserver) VnodeRemoved(v VnodeID) {
	delete(o.d.vnodeGroup, v)
}

// New returns an empty local-approach DHT.  rng drives every random choice
// the paper specifies: the victim-group draw r ∈ R_h (§3.6), the random
// halves of a group split and the random child receiving the new vnode
// (§3.7), and victim-partition selection (§2.5).
func New(cfg Config, rng *rand.Rand) (*DHT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: rng must not be nil")
	}
	return &DHT{
		cfg:        cfg,
		rng:        rng,
		groups:     make(map[GroupID]*Group),
		vnodeGroup: make(map[VnodeID]GroupID),
		index:      make(map[hashspace.Partition]VnodeID),
		levels:     make(map[uint8]int),
	}, nil
}

// Config returns the DHT's parameters.
func (d *DHT) Config() Config { return d.cfg }

// Vmax returns 2·Vmin (invariant L2).
func (d *DHT) Vmax() int { return 2 * d.cfg.Vmin }

// Vnodes returns the overall number of vnodes V.
func (d *DHT) Vnodes() int { return len(d.vnodeGroup) }

// Groups returns the current number of groups G.
func (d *DHT) Groups() int { return len(d.groups) }

// GroupIDs returns the live group identifiers in deterministic order.
func (d *DHT) GroupIDs() []GroupID {
	out := make([]GroupID, 0, len(d.groups))
	for id := range d.groups {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Group returns the group with the given identifier.
func (d *DHT) Group(id GroupID) (*Group, bool) {
	g, ok := d.groups[id]
	return g, ok
}

// GroupOf returns the group hosting vnode v.
func (d *DHT) GroupOf(v VnodeID) (GroupID, bool) {
	id, ok := d.vnodeGroup[v]
	return id, ok
}

// newGroup registers an empty group under the given identifier.
func (d *DHT) newGroup(id GroupID) (*Group, error) {
	if _, dup := d.groups[id]; dup {
		return nil, fmt.Errorf("core: duplicate group id %v", id)
	}
	sc, err := scope.New(d.cfg.Pmin, d.rng, indexObserver{d})
	if err != nil {
		return nil, err
	}
	g := &Group{id: id, sc: sc}
	d.groups[id] = g
	d.levels[sc.Level()]++
	d.stats.GroupCreations++
	return g, nil
}

// dropGroup unregisters a dissolved group.
func (d *DHT) dropGroup(g *Group) {
	d.foldStats(g.sc.Stats())
	d.decLevel(g.sc.Level())
	delete(d.groups, g.id)
}

func (d *DHT) decLevel(l uint8) {
	d.levels[l]--
	if d.levels[l] == 0 {
		delete(d.levels, l)
	}
}

// groupOp runs a mutation on a group's scope, keeping the level refcounts
// accurate when the operation performs a scope-wide split or merge.
func (d *DHT) groupOp(g *Group, fn func() error) error {
	before := g.sc.Level()
	err := fn()
	if after := g.sc.Level(); after != before {
		d.decLevel(before)
		d.levels[after]++
	}
	return err
}

// foldStats accumulates a dissolved scope's counters into the DHT totals.
func (d *DHT) foldStats(s scope.Stats) {
	d.folded.Handovers += s.Handovers
	d.folded.Splits += s.Splits
	d.folded.Merges += s.Merges
}

// Stats returns the cumulative structural-work counters.
func (d *DHT) Stats() Stats {
	out := d.stats
	out.Handovers = d.folded.Handovers
	out.PartitionSplits = d.folded.Splits
	out.PartitionMerges = d.folded.Merges
	for _, g := range d.groups {
		s := g.sc.Stats()
		out.Handovers += s.Handovers
		out.PartitionSplits += s.Splits
		out.PartitionMerges += s.Merges
	}
	return out
}

// AddVnode creates a new vnode following §3.6: draw r ∈ R_h uniformly, look
// up the vnode owning r (the victim vnode) and its group (the victim
// group), and apply balance's group planner there: it either runs the §2.5
// algorithm inside the group or, if the group is full, splits it per §3.7
// and names the random child that takes the join.  The id of the new vnode
// and its group are returned.
func (d *DHT) AddVnode() (VnodeID, GroupID, error) {
	id := d.nextID
	if len(d.groups) == 0 {
		// First vnode ⇒ first group (§3.7 case a).
		g, err := d.newGroup(GroupID{})
		if err != nil {
			return 0, GroupID{}, err
		}
		if _, err := d.join(g, id); err != nil {
			return 0, GroupID{}, err
		}
		// Bootstrap emits no observer events; seed the DHT index directly.
		for _, p := range g.sc.Partitions(id) {
			d.index[p] = id
		}
		d.vnodeGroup[id] = g.id
		d.nextID++
		return id, g.id, nil
	}
	r := d.rng.Uint64()
	victim, ok := d.Lookup(r)
	if !ok {
		return 0, GroupID{}, fmt.Errorf("core: lookup of r=%d found no owner; index corrupt", r)
	}
	g := d.groups[d.vnodeGroup[victim]]
	plan, err := d.join(g, id)
	if err == nil && plan.Halves != nil {
		// Victim group full ⇒ split (§3.7 case b) into the planned halves.
		var children [2]*Group
		if children, err = d.splitGroup(g, plan.Halves); err == nil {
			g = children[plan.Child]
			_, err = d.join(g, id)
		}
	}
	if err != nil {
		return 0, GroupID{}, err
	}
	d.vnodeGroup[id] = g.id
	d.nextID++
	return id, g.id, nil
}

// join applies the planner's join of id to g's scope.
func (d *DHT) join(g *Group, id VnodeID) (plan balance.Join[VnodeID], err error) {
	err = d.groupOp(g, func() error {
		plan, err = g.sc.Join(id, d.cfg.Vmin)
		return err
	})
	return plan, err
}

// splitGroup divides a group into two child groups holding the planner's
// halves, both inheriting the parent's splitlevel, with identifiers from
// the §3.7.1 scheme.
func (d *DHT) splitGroup(g *Group, halves [][]VnodeID) (children [2]*Group, err error) {
	loID, hiID := g.id.Split()
	level := g.sc.Level()
	for i, id := range []GroupID{loID, hiID} {
		child, err := d.newGroup(id)
		if err != nil {
			return children, err
		}
		for _, v := range halves[i] {
			set, err := g.sc.Detach(v)
			if err != nil {
				return children, err
			}
			if err := child.sc.Attach(v, set, level); err != nil {
				return children, err
			}
			d.vnodeGroup[v] = child.id
		}
		// newGroup registered the empty child at level 0; move its
		// refcount to the level it adopted on Attach.
		if l := child.sc.Level(); l != 0 {
			d.decLevel(0)
			d.levels[l]++
		}
		children[i] = child
	}
	d.dropGroup(g)
	d.stats.GroupSplits++
	return children, nil
}

// RemoveVnode dissolves a vnode inside its group (dynamic leave — an
// extension; the paper defines removal only for the base model's feature
// set).  The group's scope redistributes and, if needed, coalesces
// partitions, so G2′–G5′ keep holding.  Invariant L2's lower bound is
// relaxed on shrink: a group may run a membership deficit (V_g < Vmin)
// until future insertions refill it, mirroring the exception the paper
// already grants group 0.  The planner refuses to empty a group.
func (d *DHT) RemoveVnode(v VnodeID) error {
	gid, ok := d.vnodeGroup[v]
	if !ok {
		return fmt.Errorf("core: vnode %d not present", v)
	}
	g := d.groups[gid]
	return d.groupOp(g, func() error { return g.sc.RemoveVnode(v) })
}

// Lookup returns the vnode owning hash index i.  Groups may sit at
// different splitlevels (sizes differ between groups, §3.4), so the probe
// walks the small set of levels currently in use.
func (d *DHT) Lookup(i hashspace.Index) (VnodeID, bool) {
	for l := range d.levels {
		if v, ok := d.index[hashspace.Containing(i, l)]; ok {
			return v, true
		}
	}
	return 0, false
}

// LookupKey hashes a key and returns the responsible vnode.
func (d *DHT) LookupKey(key []byte) (VnodeID, bool) {
	return d.Lookup(hashspace.Hash(key))
}

// VnodeQuotas returns Q_v for every vnode of the DHT in ascending vnode
// order.  Quotas are exact: Q_v = P_{v,g} · 2^(−l_g) (§3.5).
func (d *DHT) VnodeQuotas() []float64 {
	ids := make([]VnodeID, 0, len(d.vnodeGroup))
	for v := range d.vnodeGroup {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]float64, len(ids))
	for i, v := range ids {
		g := d.groups[d.vnodeGroup[v]]
		q, _ := g.sc.Quota(v)
		out[i] = q
	}
	return out
}

// GroupQuotas returns Q_g for every live group, ordered by group id.
func (d *DHT) GroupQuotas() []float64 {
	ids := d.GroupIDs()
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = d.groups[id].Quota()
	}
	return out
}

// QualityOfBalancement returns σ̄(Q_v, Q̄_v), the only valid quality metric
// under the local approach (§3.5), as a fraction.
func (d *DHT) QualityOfBalancement() float64 {
	return metrics.RelStdDev(d.VnodeQuotas())
}

// GroupBalancement returns σ̄(Q_g, Q̄_g), the quality of the balancement
// *between groups* of §4.2.1, measured against the ideal average quota
// Q̄_g = 1/G.
func (d *DHT) GroupBalancement() float64 {
	qs := d.GroupQuotas()
	if len(qs) == 0 {
		return 0
	}
	return metrics.RelStdDevAround(qs, 1/float64(len(qs)))
}

// CheckInvariants verifies, beyond each group scope's G2′–G5′ checks:
// L1 + G1′ (the groups' partitions are mutually disjoint and tile R_h),
// L2's upper bound V_g ≤ Vmax (the lower bound is enforced only as
// 1 ≤ V_g, per the group-0 exception and the shrink relaxation), and the
// consistency of the vnode→group map, the partition index and the level
// refcounts.
func (d *DHT) CheckInvariants() error {
	if len(d.groups) == 0 {
		if len(d.vnodeGroup) != 0 || len(d.index) != 0 {
			return fmt.Errorf("core: empty DHT with residual state")
		}
		return nil
	}
	all := hashspace.NewSet()
	vnodeCount := 0
	indexCount := 0
	levelSeen := make(map[uint8]int)
	for id, g := range d.groups {
		if g.id != id {
			return fmt.Errorf("core: group map key %v ≠ group id %v", id, g.id)
		}
		if err := g.sc.CheckInvariants(); err != nil {
			return fmt.Errorf("core: group %v: %w", id, err)
		}
		if n := g.sc.Len(); n < 1 || n > d.Vmax() {
			return fmt.Errorf("core: L2 violated: group %v has %d vnodes (Vmax=%d)", id, n, d.Vmax())
		}
		levelSeen[g.sc.Level()]++
		for _, v := range g.sc.Vnodes() {
			vnodeCount++
			if got, ok := d.vnodeGroup[v]; !ok || got != id {
				return fmt.Errorf("core: vnode %d group map says %v, scope says %v", v, got, id)
			}
			for _, p := range g.sc.Partitions(v) {
				if err := all.Add(p); err != nil {
					return fmt.Errorf("core: L1/G1′ violated: %w", err)
				}
				owner, ok := d.index[p]
				if !ok || owner != v {
					return fmt.Errorf("core: index for %v says vnode %d, scope says %d", p, owner, v)
				}
				indexCount++
			}
		}
	}
	if !all.Covers() {
		return fmt.Errorf("core: G1′ violated: groups do not tile R_h")
	}
	if vnodeCount != len(d.vnodeGroup) {
		return fmt.Errorf("core: %d vnodes in scopes, %d in group map", vnodeCount, len(d.vnodeGroup))
	}
	if indexCount != len(d.index) {
		return fmt.Errorf("core: index has %d entries, scopes have %d partitions", len(d.index), indexCount)
	}
	for l, n := range levelSeen {
		if d.levels[l] != n {
			return fmt.Errorf("core: level %d refcount %d, want %d", l, d.levels[l], n)
		}
	}
	for l := range d.levels {
		if levelSeen[l] == 0 {
			return fmt.Errorf("core: stale level refcount for %d", l)
		}
	}
	return nil
}
