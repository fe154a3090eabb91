package hashspace

import (
	"fmt"
	"sort"
)

// Set is a collection of partitions.  The model's invariant G1/G1′ demands
// that the partitions owned by a DHT (or the subset owned by one group) be
// mutually disjoint; Set provides the verification primitives used by tests
// and by the runtime's self-checks.
//
// Set is not safe for concurrent use; owners (vnodes) are single-writer.
type Set struct {
	parts map[Partition]struct{}
	lvls  LevelSet // levels with at least one member, for Lookup
}

// NewSet returns an empty Set.
func NewSet() *Set { return &Set{parts: make(map[Partition]struct{})} }

// Len returns the number of partitions in the set.
func (s *Set) Len() int { return len(s.parts) }

// Has reports whether p is a member.
func (s *Set) Has(p Partition) bool {
	_, ok := s.parts[p]
	return ok
}

// Add inserts p.  It returns an error if p is invalid or overlaps a member
// (a violation of invariant G1).
func (s *Set) Add(p Partition) error {
	if !p.Valid() {
		return fmt.Errorf("hashspace: invalid partition %+v", p)
	}
	if s.Has(p) {
		return fmt.Errorf("hashspace: duplicate partition %v", p)
	}
	// Overlap with any ancestor or descendant already present?
	for a := p; a.Level > 0; {
		a = a.Parent()
		if s.Has(a) {
			return fmt.Errorf("hashspace: %v overlaps ancestor %v", p, a)
		}
	}
	// Descendant check would be O(|set|); owners only ever insert partitions
	// at the set's common level, so scanning is acceptable and exact.
	for q := range s.parts {
		if q.Level > p.Level && q.Overlaps(p) {
			return fmt.Errorf("hashspace: %v overlaps descendant %v", p, q)
		}
	}
	s.parts[p] = struct{}{}
	s.lvls.Add(p.Level)
	return nil
}

// Remove deletes p, reporting whether it was present.
func (s *Set) Remove(p Partition) bool {
	if !s.Has(p) {
		return false
	}
	delete(s.parts, p)
	s.lvls.Remove(p.Level)
	return true
}

// Partitions returns the members sorted by (Level, Prefix) for deterministic
// iteration.
func (s *Set) Partitions() []Partition {
	out := make([]Partition, 0, len(s.parts))
	for p := range s.parts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out
}

// Quota returns the fraction of R_h covered by the set (the sum of member
// quotas; exact because members are disjoint).
func (s *Set) Quota() float64 {
	q := 0.0
	for p := range s.parts {
		q += p.Quota()
	}
	return q
}

// Lookup returns the member containing index i, if any: one probe per
// level that occurs in the set, deepest first.  The model keeps at most a
// handful of distinct levels alive at once.
func (s *Set) Lookup(i Index) (Partition, bool) {
	for _, l := range s.lvls.Desc {
		if p := Containing(i, l); s.Has(p) {
			return p, true
		}
	}
	return Partition{}, false
}

// LevelSet tracks, for a collection of partitions, how many members exist
// at each splitlevel and keeps the live levels in a descending slice — the
// probe order for "which member covers this index".  Membership changes
// are rare (splits, transfers); probes run per key, so they must not
// iterate or sort the collection.  The zero value is empty.
type LevelSet struct {
	count [MaxLevel + 1]int
	Desc  []uint8 // live levels, deepest first; read-only for callers
}

// Add records one more member at level l.
func (ls *LevelSet) Add(l uint8) {
	ls.count[l]++
	if ls.count[l] == 1 {
		i := sort.Search(len(ls.Desc), func(i int) bool { return ls.Desc[i] < l })
		ls.Desc = append(ls.Desc, 0)
		copy(ls.Desc[i+1:], ls.Desc[i:])
		ls.Desc[i] = l
	}
}

// Remove drops one member at level l.
func (ls *LevelSet) Remove(l uint8) {
	ls.count[l]--
	if ls.count[l] == 0 {
		for i, v := range ls.Desc {
			if v == l {
				ls.Desc = append(ls.Desc[:i], ls.Desc[i+1:]...)
				break
			}
		}
	}
}

// Covers reports whether the members exactly tile the whole of R_h
// (invariant G1: full division of R_h into non-overlapping partitions).
// Members are assumed disjoint (enforced by Add); full cover of disjoint
// trie partitions is equivalent to quotas summing to 1, but to stay exact we
// verify structurally: sort by start and check contiguity.
func (s *Set) Covers() bool {
	parts := s.Partitions()
	if len(parts) == 0 {
		return false
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Start() < parts[j].Start() })
	if parts[0].Start() != 0 {
		return false
	}
	for i := 1; i < len(parts); i++ {
		prev := parts[i-1]
		// End of prev = start + 2^(Bits-level); compare via the start of the
		// next partition at prev's level to avoid overflow at level 0.
		if prev.Level == 0 {
			return len(parts) == 1
		}
		nextStart := (prev.Prefix + 1) << (Bits - uint(prev.Level))
		if prev.Prefix+1 == 1<<prev.Level {
			// prev ends exactly at 2^Bits: must be the last partition.
			return i == len(parts)
		}
		if parts[i].Start() != nextStart {
			return false
		}
	}
	last := parts[len(parts)-1]
	if last.Level == 0 {
		return len(parts) == 1
	}
	return last.Prefix+1 == 1<<last.Level
}
