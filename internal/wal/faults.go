package wal

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Faults is a nemesis disk-fault plan for a log: slow fsyncs (base ±
// jitter) and probabilistic fsync failures, both drawn from one seeded
// *rand.Rand so a scenario's disk behaviour is reproducible from a
// printed seed.  Attach via Options.Faults; rules may change live.
//
// An injected fsync failure takes the log's ordinary flush-error path:
// the written bytes are truncated back off the segment, the records
// re-buffer at the front of the queue, and the next flush round retries
// them in order — exactly what a transient EIO exercises.  A slow fsync
// sleeps in the flush path while holding only the flush lock, so
// appends continue and only durability waits (and therefore write acks
// under FsyncBatch) stretch.
type Faults struct {
	seed int64
	// ruled counts installed rules so the per-fsync check is one atomic
	// load while the plan is empty.
	ruled atomic.Int64

	mu         sync.Mutex
	rng        *rand.Rand    // guarded by mu
	slowBase   time.Duration // guarded by mu
	slowJitter time.Duration // guarded by mu
	errRate    float64       // guarded by mu
}

// ErrInjectedFsync is the error surfaced by an injected fsync failure.
var ErrInjectedFsync = errors.New("wal: injected fsync failure")

// NewFaults returns an empty disk-fault plan whose randomness derives
// from seed alone.
func NewFaults(seed int64) *Faults {
	return &Faults{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed the plan was built from.
func (f *Faults) Seed() int64 { return f.seed }

// SetSlowFsync makes every fsync take an extra base ± jitter (uniform).
// Zero base and jitter removes the rule.
func (f *Faults) SetSlowFsync(base, jitter time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slowBase, f.slowJitter = base, jitter
	f.recountLocked()
}

// SetFsyncErrorRate makes each fsync independently fail with probability
// p (the record batch re-buffers and retries).  p = 0 removes the rule.
func (f *Faults) SetFsyncErrorRate(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errRate = p
	f.recountLocked()
}

// Heal removes every rule: the disk is healthy again.
func (f *Faults) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slowBase, f.slowJitter, f.errRate = 0, 0, 0
	f.recountLocked()
}

// recountLocked refreshes the fast-path rule gate.  Caller holds f.mu.
func (f *Faults) recountLocked() {
	n := int64(0)
	if f.slowBase > 0 || f.slowJitter > 0 {
		n++
	}
	if f.errRate > 0 {
		n++
	}
	f.ruled.Store(n)
}

// fsyncFault decides one fsync's fate: how long to stall first, and
// whether to fail instead of syncing.  Nil and empty plans answer
// without locking.
func (f *Faults) fsyncFault() (delay time.Duration, err error) {
	if f == nil || f.ruled.Load() == 0 {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.errRate > 0 && f.rng.Float64() < f.errRate {
		return 0, ErrInjectedFsync
	}
	delay = f.slowBase
	if f.slowJitter > 0 {
		delay += time.Duration((2*f.rng.Float64() - 1) * float64(f.slowJitter))
	}
	if delay < 0 {
		delay = 0
	}
	return delay, nil
}
