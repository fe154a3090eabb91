package hashspace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAddRejectsOverlap(t *testing.T) {
	s := NewSet()
	p := Partition{Prefix: 0b10, Level: 2}
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(p); err == nil {
		t.Fatal("duplicate Add must fail")
	}
	if err := s.Add(p.Parent()); err == nil {
		t.Fatal("adding ancestor of member must fail")
	}
	lo, _ := p.Split()
	if err := s.Add(lo); err == nil {
		t.Fatal("adding descendant of member must fail")
	}
	if err := s.Add(Partition{Prefix: 5, Level: 2}); err == nil {
		t.Fatal("invalid partition must be rejected")
	}
	if s.Len() != 1 {
		t.Fatalf("set length = %d, want 1", s.Len())
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet()
	p := Partition{Prefix: 1, Level: 1}
	if s.Remove(p) {
		t.Fatal("removing absent member must report false")
	}
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if !s.Remove(p) {
		t.Fatal("removing present member must report true")
	}
	if s.Has(p) {
		t.Fatal("member still present after Remove")
	}
}

// fullTiling builds the complete level-l tiling of R_h.
func fullTiling(t *testing.T, l uint8) *Set {
	t.Helper()
	s := NewSet()
	for pre := uint64(0); pre < 1<<l; pre++ {
		if err := s.Add(Partition{Prefix: pre, Level: l}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSetCoversFullTiling(t *testing.T) {
	for _, l := range []uint8{0, 1, 2, 5, 8} {
		s := fullTiling(t, l)
		if !s.Covers() {
			t.Errorf("level-%d tiling must cover R_h", l)
		}
		if q := s.Quota(); q != 1.0 {
			t.Errorf("level-%d tiling quota = %v, want 1", l, q)
		}
	}
}

func TestSetCoversDetectsHole(t *testing.T) {
	s := fullTiling(t, 3)
	s.Remove(Partition{Prefix: 5, Level: 3})
	if s.Covers() {
		t.Fatal("tiling with a hole must not cover")
	}
	s2 := NewSet()
	if s2.Covers() {
		t.Fatal("empty set must not cover")
	}
	// Missing the first partition.
	s3 := fullTiling(t, 2)
	s3.Remove(Partition{Prefix: 0, Level: 2})
	if s3.Covers() {
		t.Fatal("tiling missing the start must not cover")
	}
	// Missing the last partition.
	s4 := fullTiling(t, 2)
	s4.Remove(Partition{Prefix: 3, Level: 2})
	if s4.Covers() {
		t.Fatal("tiling missing the end must not cover")
	}
}

func TestSetCoversMixedLevels(t *testing.T) {
	// {0@1, 10@2, 110@3, 111@3} tiles R_h with three distinct levels.
	s := NewSet()
	for _, p := range []Partition{
		{Prefix: 0b0, Level: 1},
		{Prefix: 0b10, Level: 2},
		{Prefix: 0b110, Level: 3},
		{Prefix: 0b111, Level: 3},
	} {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Covers() {
		t.Fatal("mixed-level exact tiling must cover")
	}
}

func TestSetLookup(t *testing.T) {
	s := NewSet()
	a := Partition{Prefix: 0b0, Level: 1}
	b := Partition{Prefix: 0b10, Level: 2}
	for _, p := range []Partition{a, b} {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Lookup(0); !ok || got != a {
		t.Fatalf("Lookup(0) = %v,%v want %v", got, ok, a)
	}
	if got, ok := s.Lookup(a.Start() ^ 1<<63 | 1); !ok || got != b {
		t.Fatalf("Lookup(high half low quarter) = %v,%v want %v", got, ok, b)
	}
	if _, ok := s.Lookup(^uint64(0)); ok {
		t.Fatal("Lookup outside members must miss")
	}
}

func TestSetPartitionsSorted(t *testing.T) {
	s := fullTiling(t, 4)
	parts := s.Partitions()
	for i := 1; i < len(parts); i++ {
		if parts[i-1].Prefix >= parts[i].Prefix {
			t.Fatal("Partitions must be sorted by prefix within a level")
		}
	}
}

// Property: splitting every member of a full tiling yields a full tiling with
// doubled count and identical total quota — the heart of invariant G3.
func TestSetSplitAllPreservesCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := uint8(1 + rng.Intn(6))
		s := NewSet()
		for pre := uint64(0); pre < 1<<l; pre++ {
			if err := s.Add(Partition{Prefix: pre, Level: l}); err != nil {
				return false
			}
		}
		before := s.Len()
		split := NewSet()
		for _, p := range s.Partitions() {
			lo, hi := p.Split()
			if split.Add(lo) != nil || split.Add(hi) != nil {
				return false
			}
		}
		return split.Len() == 2*before && split.Covers() && split.Quota() == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSetLookupMatchesScan: Lookup probes only the levels that currently
// have members; whatever sequence of adds, removes and splits produced the
// set, it must answer exactly like a scan over every member.
func TestSetLookupMatchesScan(t *testing.T) {
	scan := func(s *Set, i Index) (Partition, bool) {
		for _, p := range s.Partitions() {
			if p.Contains(i) {
				return p, true
			}
		}
		return Partition{}, false
	}
	probes := []Index{0, 1, 1 << 61, 1<<62 - 1, 1 << 62, 1<<63 - 1, 1 << 63, 1<<63 + 1<<62, ^Index(0)}
	check := func(t *testing.T, s *Set, when string) {
		t.Helper()
		for _, i := range probes {
			got, ok := s.Lookup(i)
			want, wok := scan(s, i)
			if ok != wok || got != want {
				t.Fatalf("%s: Lookup(%#x) = %v,%v; a scan finds %v,%v", when, i, got, ok, want, wok)
			}
		}
	}
	type op struct {
		kind string // add, remove or split
		p    Partition
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"empty set", nil},
		{"one level", []op{
			{"add", Partition{Prefix: 0, Level: 2}}, {"add", Partition{Prefix: 1, Level: 2}},
			{"add", Partition{Prefix: 2, Level: 2}}, {"add", Partition{Prefix: 3, Level: 2}},
		}},
		{"mixed levels with a hole", []op{
			{"add", Partition{Prefix: 0b0, Level: 1}},
			{"add", Partition{Prefix: 0b10, Level: 2}},
			{"add", Partition{Prefix: 0b111, Level: 3}},
		}},
		{"a level empties and refills", []op{
			{"add", Partition{Prefix: 0b0, Level: 1}}, {"add", Partition{Prefix: 0b10, Level: 2}},
			{"remove", Partition{Prefix: 0b10, Level: 2}}, // level 2 gone
			{"add", Partition{Prefix: 0b11, Level: 2}},    // and back
			{"remove", Partition{Prefix: 0b0, Level: 1}},  // level 1 gone
			{"remove", Partition{Prefix: 0b0, Level: 1}},  // removing a non-member changes nothing
		}},
		{"splits deepen one branch at a time", []op{
			{"add", Root()},
			{"split", Root()},
			{"split", Partition{Prefix: 1, Level: 1}},
			{"split", Partition{Prefix: 0b11, Level: 2}},
			{"split", Partition{Prefix: 0, Level: 1}},
			{"remove", Partition{Prefix: 0b110, Level: 3}},
		}},
		{"root only", []op{{"add", Root()}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSet()
			check(t, s, "start")
			for n, o := range tc.ops {
				switch o.kind {
				case "add":
					if err := s.Add(o.p); err != nil {
						t.Fatal(err)
					}
				case "remove":
					s.Remove(o.p)
				case "split":
					if !s.Remove(o.p) {
						t.Fatalf("op %d: %v is not a member", n, o.p)
					}
					lo, hi := o.p.Split()
					if err := s.Add(lo); err != nil {
						t.Fatal(err)
					}
					if err := s.Add(hi); err != nil {
						t.Fatal(err)
					}
				}
				check(t, s, fmt.Sprintf("after op %d (%s %v)", n, o.kind, o.p))
			}
		})
	}
}
