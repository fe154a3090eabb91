package workload

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Pacer schedules operations open-loop at a fixed target rate: the i-th
// op is due at start + i/rate regardless of how long earlier ops took,
// so a slow server builds a visible backlog instead of silently slowing
// the load (the coordinated-omission trap of closed loops).  One Pacer
// may be shared by many goroutines; each Wait claims the next slot.
type Pacer struct {
	interval time.Duration
	start    time.Time
	n        atomic.Int64
	now      func() time.Time // the clock, which tests replace
	sleep    func(time.Duration)
}

// NewPacer returns a pacer targeting opsPerSec operations per second,
// clock running from construction.
func NewPacer(opsPerSec float64) (*Pacer, error) {
	if opsPerSec <= 0 {
		return nil, fmt.Errorf("workload: target rate must be > 0, got %v", opsPerSec)
	}
	return &Pacer{
		interval: time.Duration(float64(time.Second) / opsPerSec),
		start:    time.Now(),
		now:      time.Now,
		sleep:    time.Sleep,
	}, nil
}

// Wait blocks until the caller's slot is due and returns how far behind
// schedule the slot already was (0 when the generator is keeping up).
// The returned lag is the open-loop scheduling delay to add to the op's
// measured service time.
func (p *Pacer) Wait() time.Duration {
	i := p.n.Add(1) - 1
	due := p.start.Add(time.Duration(i) * p.interval)
	lag := p.now().Sub(due)
	if lag < 0 {
		p.sleep(-lag)
		return 0
	}
	return lag
}
