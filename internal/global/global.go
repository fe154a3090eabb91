package global

import (
	"fmt"
	"math/rand"

	"dbdht/internal/hashspace"
	"dbdht/internal/metrics"
	"dbdht/internal/scope"
)

// VnodeID identifies a vnode of the DHT.
type VnodeID = scope.VnodeID

// DHT is a global-approach DHT.  It is not safe for concurrent use — which
// is faithful to the model: the global approach executes vnode creations
// serially across the whole DHT (§3, first paragraph).
type DHT struct {
	sc     *scope.Scope
	nextID VnodeID
}

// New returns an empty global-approach DHT.  Pmin must be a power of two;
// rng drives victim-partition selection and must not be nil.
func New(pmin int, rng *rand.Rand) (*DHT, error) {
	sc, err := scope.New(pmin, rng, nil)
	if err != nil {
		return nil, err
	}
	return &DHT{sc: sc}, nil
}

// Pmin returns the fine-grain balancement parameter Pmin.
func (d *DHT) Pmin() int { return d.sc.Pmin() }

// Pmax returns 2·Pmin (invariant G4).
func (d *DHT) Pmax() int { return d.sc.Pmax() }

// Vnodes returns the number of vnodes V.
func (d *DHT) Vnodes() int { return d.sc.Len() }

// Partitions returns the overall number of partitions P (invariant G2 keeps
// it a power of two).
func (d *DHT) Partitions() int { return d.sc.TotalPartitions() }

// Level returns the common splitlevel l of all partitions (invariant G3).
func (d *DHT) Level() uint8 { return d.sc.Level() }

// Stats returns cumulative structural-work counters (handovers, splits,
// merges).
func (d *DHT) Stats() scope.Stats { return d.sc.Stats() }

// AddVnode creates a new vnode, running the §2.5 creation algorithm across
// the whole DHT, and returns its id.
func (d *DHT) AddVnode() (VnodeID, error) {
	id := d.nextID
	if err := d.sc.AddVnode(id); err != nil {
		return 0, err
	}
	d.nextID++
	return id, nil
}

// RemoveVnode dissolves a vnode, reassigning and, if necessary, coalescing
// partitions (dynamic leave — feature (c) of the base model, §1).  The
// planner refuses to remove the DHT's last vnode.
func (d *DHT) RemoveVnode(v VnodeID) error { return d.sc.RemoveVnode(v) }

// VnodeIDs returns the live vnode ids in ascending order.
func (d *DHT) VnodeIDs() []VnodeID { return d.sc.Vnodes() }

// PartitionCount returns P_v for vnode v.
func (d *DHT) PartitionCount(v VnodeID) (int, bool) { return d.sc.PartitionCount(v) }

// PartitionsOf returns the partitions currently bound to vnode v.
func (d *DHT) PartitionsOf(v VnodeID) []hashspace.Partition { return d.sc.Partitions(v) }

// GPDR returns a copy of the Global Partition Distribution Record: the
// number of partitions per vnode (§2.1.4).
func (d *DHT) GPDR() map[VnodeID]int { return d.sc.Counts() }

// Lookup returns the vnode responsible for hash index i.
func (d *DHT) Lookup(i hashspace.Index) (VnodeID, bool) { return d.sc.Lookup(i) }

// LookupKey hashes an arbitrary key and returns the responsible vnode.
func (d *DHT) LookupKey(key []byte) (VnodeID, bool) { return d.sc.Lookup(hashspace.Hash(key)) }

// Quotas returns Q_v for every vnode in ascending vnode order (§2.3).
func (d *DHT) Quotas() []float64 { return d.sc.Quotas() }

// QualityOfBalancement returns σ̄(Q_v, Q̄_v), the paper's quality metric,
// as a fraction (§2.3: multiply by 100 for the figures' percentages).
// In the global approach this equals σ̄(P_v, P̄_v) by the §2.4 argument.
func (d *DHT) QualityOfBalancement() float64 { return metrics.RelStdDev(d.sc.Quotas()) }

// CheckInvariants verifies G1 (full, non-overlapping division of R_h) and
// the scope-level invariants G2–G5.
func (d *DHT) CheckInvariants() error {
	if err := d.sc.CheckInvariants(); err != nil {
		return err
	}
	if d.sc.Len() == 0 {
		return nil
	}
	// G1: the union of all vnodes' partitions tiles R_h exactly.
	all := hashspace.NewSet()
	for _, v := range d.sc.Vnodes() {
		for _, p := range d.sc.Partitions(v) {
			if err := all.Add(p); err != nil {
				return fmt.Errorf("global: G1 violated: %w", err)
			}
		}
	}
	if !all.Covers() {
		return fmt.Errorf("global: G1 violated: partitions do not cover R_h")
	}
	return nil
}
