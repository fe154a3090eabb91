package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is a nemesis fault plan for the fabric: a set of
// per-directed-link rules — blocked (partition), probabilistic frame
// drop, and one-way delay with jitter — consulted once per envelope.
// Every random decision (drop coin flips, jitter draws) comes from one
// seeded *rand.Rand, so a scenario's fault behaviour is reproducible
// from a printed seed; the rule set itself is mutated only by the
// nemesis schedule, which is deterministic by construction.
//
// Attach a plan with SetFaults before the fabric carries traffic; rules
// may then be installed, changed and healed live.  All rules are
// directed (from → to): Partition installs both directions,
// PartitionOneWay and the link setters exactly what they are given, so
// asymmetric partitions are first-class.
//
// Faults are judged on the receive side, after a frame is decoded and
// before it is delivered, on either medium.  A blocked or dropped
// envelope vanishes whole — the sender saw Send succeed, exactly like a
// lost datagram, and RPCs surface the loss as timeouts — while the byte
// stream underneath stays intact.  Delay sleeps in the connection's read
// loop; each ordered (from, to) pair has its own connection, so only
// that link slows and its FIFO order holds.
type Faults struct {
	seed int64
	// ruled counts installed rules so the per-envelope judge call is a
	// single atomic load while the plan is empty (the common case: a
	// scenario attaches the plan up front and injects faults briefly).
	ruled atomic.Int64

	mu      sync.Mutex
	rng     *rand.Rand              // guarded by mu
	blocked map[faultLink]bool      // guarded by mu
	drops   map[faultLink]float64   // guarded by mu
	delays  map[faultLink]delayRule // guarded by mu
}

// faultLink is one directed fabric link.
type faultLink struct {
	from, to NodeID
}

type delayRule struct {
	base, jitter time.Duration
}

// faultVerdict is judge's per-envelope decision.
type faultVerdict struct {
	drop  bool
	delay time.Duration
}

// NewFaults returns an empty fault plan whose randomness derives from
// seed alone.
func NewFaults(seed int64) *Faults {
	return &Faults{
		seed:    seed,
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[faultLink]bool),
		drops:   make(map[faultLink]float64),
		delays:  make(map[faultLink]delayRule),
	}
}

// Seed returns the seed the plan was built from, for printing alongside
// scenario results.
func (f *Faults) Seed() int64 { return f.seed }

// Partition symmetrically blocks every link between the two host sets:
// no envelope crosses in either direction until Heal (or a new plan
// overwrites the links).  Hosts within one set stay connected.
func (f *Faults) Partition(a, b []NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			f.blocked[faultLink{x, y}] = true
			f.blocked[faultLink{y, x}] = true
		}
	}
	f.recountLocked()
}

// PartitionOneWay blocks only the from → to direction of every link
// between the sets: requests still arrive, responses (or vice versa)
// vanish — the classic asymmetric partition.
func (f *Faults) PartitionOneWay(from, to []NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range from {
		for _, y := range to {
			f.blocked[faultLink{x, y}] = true
		}
	}
	f.recountLocked()
}

// SetLinkDelay installs a one-way delay of base ± jitter (uniform) on
// every from → to link.  Call twice with the sets swapped for a
// symmetric slow link.  A zero base and jitter removes the rule.
func (f *Faults) SetLinkDelay(from, to []NodeID, base, jitter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range from {
		for _, y := range to {
			l := faultLink{x, y}
			if base == 0 && jitter == 0 {
				delete(f.delays, l)
			} else {
				f.delays[l] = delayRule{base: base, jitter: jitter}
			}
		}
	}
	f.recountLocked()
}

// SetLinkDrop installs a probabilistic one-way frame drop on every
// from → to link: each envelope is independently lost with probability
// p.  p = 0 removes the rule.
func (f *Faults) SetLinkDrop(from, to []NodeID, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, x := range from {
		for _, y := range to {
			l := faultLink{x, y}
			if p <= 0 {
				delete(f.drops, l)
			} else {
				f.drops[l] = p
			}
		}
	}
	f.recountLocked()
}

// Heal removes every rule: the fabric is whole again.  An envelope a
// read loop is already sleeping on still delivers (a late packet from
// the bad period).
func (f *Faults) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.blocked)
	clear(f.drops)
	clear(f.delays)
	f.recountLocked()
}

// Describe renders the installed rules, sorted, for scenario logs.
func (f *Faults) Describe() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var parts []string
	for l := range f.blocked {
		parts = append(parts, fmt.Sprintf("block %d→%d", l.from, l.to))
	}
	for l, p := range f.drops {
		parts = append(parts, fmt.Sprintf("drop %d→%d p=%.2f", l.from, l.to, p))
	}
	for l, d := range f.delays {
		parts = append(parts, fmt.Sprintf("delay %d→%d %v±%v", l.from, l.to, d.base, d.jitter))
	}
	if len(parts) == 0 {
		return "healthy"
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// recountLocked refreshes the fast-path rule gate.  Caller holds f.mu.
func (f *Faults) recountLocked() {
	f.ruled.Store(int64(len(f.blocked) + len(f.drops) + len(f.delays)))
}

// judge decides one envelope's fate on the from → to link.  Nil plans
// and empty plans answer without locking.
func (f *Faults) judge(from, to NodeID) faultVerdict {
	if f == nil || f.ruled.Load() == 0 {
		return faultVerdict{}
	}
	l := faultLink{from, to}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.blocked[l] {
		return faultVerdict{drop: true}
	}
	if p, ok := f.drops[l]; ok && f.rng.Float64() < p {
		return faultVerdict{drop: true}
	}
	var v faultVerdict
	if d, ok := f.delays[l]; ok {
		v.delay = d.base
		if d.jitter > 0 {
			v.delay += time.Duration((2*f.rng.Float64() - 1) * float64(d.jitter))
		}
		if v.delay < 0 {
			v.delay = 0
		}
	}
	return v
}
