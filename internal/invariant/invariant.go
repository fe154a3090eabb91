// Package invariant machine-checks what a fault-injection run must not
// break.  A Recorder captures the client-side history of a workload —
// which writes were acknowledged, when, and what every read returned —
// and the checkers turn that history plus a final read-back into
// structured verdicts:
//
//   - CheckNoAckedLoss: every acknowledged write survives (the
//     durability contract of R ≥ 2 replication and the WAL);
//   - CheckBoundedStaleness: a read may serve an old value (one racing
//     a write, or read from a promoted replica that missed the last
//     write), but never older than the configured bound, and never a
//     value nobody wrote (a phantom);
//   - CheckWriteAvailability and CheckReadAvailability: the longest
//     stretch of the history with no acknowledged write, or no answered
//     read, stays within a bound (a failover's blackout);
//   - CheckConvergence: after Heal the cluster stops repairing and the
//     balancer's quota deviation settles within the deadline.
//
// The Recorder assumes each key has a single sequential writer (the
// harness gives every writer goroutine its own key prefix), which makes
// "the last acknowledged value" well defined without a consensus log.
package invariant

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Verdict is one checker's structured outcome, embedded verbatim in
// BENCH records.
type Verdict struct {
	// Name identifies the invariant ("no-acked-write-loss", ...).
	Name string `json:"name"`
	// Pass reports whether the history satisfies the invariant.
	Pass bool `json:"pass"`
	// Detail is a one-line human explanation (first violation, or what
	// was checked).
	Detail string `json:"detail"`
	// Metrics carries the checker's numeric evidence (counts, worst
	// staleness, convergence time).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func (v Verdict) String() string {
	s := "PASS"
	if !v.Pass {
		s = "FAIL"
	}
	return fmt.Sprintf("%-24s %s  %s", v.Name, s, v.Detail)
}

// writeEv is one recorded write attempt on a key.
type writeEv struct {
	sum     uint64 // FNV-64a of the value written
	start   time.Time
	acked   bool
	ackedAt time.Time
}

// keyHist is a key's write history in issue order (single writer per
// key, so issue order is the only order).
type keyHist struct {
	writes []writeEv
}

// readEv is one recorded read and what it observed.
type readEv struct {
	key   string
	sum   uint64
	found bool
	start time.Time
	end   time.Time
}

// Recorder captures a workload's client-visible history.  Values are
// folded to FNV-64a sums at record time, so holding the history of
// millions of ops stays cheap.  Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	keys   map[string]*keyHist // guarded by mu
	reads  []readEv            // guarded by mu; answered reads
	failed []readEv            // guarded by mu; reads that got an error (key and start only)
}

// NewRecorder returns an empty history.
func NewRecorder() *Recorder {
	return &Recorder{keys: make(map[string]*keyHist)}
}

// ValueSum is the fingerprint the checkers compare values by.
func ValueSum(value []byte) uint64 {
	h := fnv.New64a()
	h.Write(value) // never fails per hash.Hash contract
	return h.Sum64()
}

// RecordWrite records one write attempt: started at start, carrying
// value, and acked reports whether the cluster acknowledged it.  An
// unacknowledged (timed-out) write is indeterminate — it may or may not
// survive — and the checkers treat it that way.
func (r *Recorder) RecordWrite(key string, value []byte, start time.Time, acked bool) {
	ev := writeEv{sum: ValueSum(value), start: start, acked: acked}
	if acked {
		ev.ackedAt = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.keys[key]
	if h == nil {
		h = &keyHist{}
		r.keys[key] = h
	}
	h.writes = append(h.writes, ev)
}

// RecordRead records one read spanning [start, end] that observed the
// given value (found = false for a miss; value is then ignored).
func (r *Recorder) RecordRead(key string, value []byte, found bool, start, end time.Time) {
	ev := readEv{key: key, found: found, start: start, end: end}
	if found {
		ev.sum = ValueSum(value)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, ev)
}

// RecordFailedRead records one read started at start that got an error
// instead of an answer.  Only CheckReadAvailability judges it.
func (r *Recorder) RecordFailedRead(key string, start time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, readEv{key: key, start: start})
}

// AckedKeys lists every key with at least one acknowledged write,
// sorted — the read-back set for CheckNoAckedLoss.
func (r *Recorder) AckedKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.keys))
	for k, h := range r.keys {
		for _, w := range h.writes {
			if w.acked {
				keys = append(keys, k)
				break
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// Counts reports how many writes (total, acked) and answered reads the
// history holds.
func (r *Recorder) Counts() (writes, acked, reads int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.keys {
		writes += len(h.writes)
		for _, w := range h.writes {
			if w.acked {
				acked++
			}
		}
	}
	return writes, acked, len(r.reads)
}

// ReadBack is a key's final observed state after the run settled.
type ReadBack struct {
	Value []byte
	Found bool
}

// CheckNoAckedLoss verifies every acknowledged write survived: for each
// key with acked writes, the final read-back must be found and carry
// either the last acked value or the value of some unacknowledged write
// issued after it (a timed-out overwrite is indeterminate: it may have
// landed).  A miss, or a value matching no recorded write, is a
// violation.
func (r *Recorder) CheckNoAckedLoss(final map[string]ReadBack) Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	var checked, lost, corrupt int
	var firstBad string
	for key, h := range r.keys {
		lastAcked := -1
		for i, w := range h.writes {
			if w.acked {
				lastAcked = i
			}
		}
		if lastAcked < 0 {
			continue // nothing was promised for this key
		}
		checked++
		fb, ok := final[key]
		if !ok || !fb.Found {
			lost++
			if firstBad == "" {
				firstBad = fmt.Sprintf("key %q: acked write missing on read-back", key)
			}
			continue
		}
		got := ValueSum(fb.Value)
		allowed := got == h.writes[lastAcked].sum
		for _, w := range h.writes[lastAcked+1:] {
			if !w.acked && w.sum == got {
				allowed = true // an indeterminate later write landed
			}
		}
		if !allowed {
			corrupt++
			if firstBad == "" {
				firstBad = fmt.Sprintf("key %q: read-back matches no surviving write", key)
			}
		}
	}
	v := Verdict{
		Name: "no-acked-write-loss",
		Pass: lost == 0 && corrupt == 0,
		Metrics: map[string]float64{
			"keys_checked": float64(checked),
			"keys_lost":    float64(lost),
			"keys_corrupt": float64(corrupt),
		},
	}
	if v.Pass {
		v.Detail = fmt.Sprintf("all %d acked keys intact on read-back", checked)
	} else {
		v.Detail = firstBad
	}
	return v
}

// CheckBoundedStaleness verifies every answered mid-run read was at most
// bound stale: a read may return an old value (it raced the write, or a
// promoted replica missed the write in flight at the crash), but only if
// the write that superseded it was acknowledged less than bound before
// the read's start.  Reads returning a value no write issued before the
// read ended had produced are phantoms and always fail.  Failed reads
// observed nothing and are not judged here.
func (r *Recorder) CheckBoundedStaleness(bound time.Duration) Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	var checked, stale, phantom int
	var worst time.Duration
	var firstBad string
	for _, rd := range r.reads {
		h := r.keys[rd.key]
		if h == nil {
			continue // read of a key this history never wrote
		}
		checked++
		if !rd.found {
			// A miss is stale iff some write was acked at least `bound`
			// before the read began (it should have been visible).
			for _, w := range h.writes {
				if w.acked && rd.start.Sub(w.ackedAt) > bound {
					stale++
					if firstBad == "" {
						firstBad = fmt.Sprintf("key %q: miss %v after first ack", rd.key, rd.start.Sub(w.ackedAt).Round(time.Millisecond))
					}
					break
				}
			}
			continue
		}
		// Find the write the read observed — the latest one with that
		// value issued before the read ended, since a key may be
		// rewritten with an earlier value — and measure staleness to
		// the first acked write that superseded it.
		matched := false
		for i := len(h.writes) - 1; i >= 0; i-- {
			w := h.writes[i]
			if w.sum != rd.sum || w.start.After(rd.end) {
				continue
			}
			matched = true
			var lag time.Duration
			for _, w2 := range h.writes[i+1:] {
				if w2.acked {
					lag = rd.start.Sub(w2.ackedAt)
					break
				}
			}
			if lag > worst {
				worst = lag
			}
			if lag > bound {
				stale++
				if firstBad == "" {
					firstBad = fmt.Sprintf("key %q: read a value superseded %v earlier (bound %v)", rd.key, lag.Round(time.Millisecond), bound)
				}
			}
			break
		}
		if !matched {
			phantom++
			if firstBad == "" {
				firstBad = fmt.Sprintf("key %q: read a value no write produced", rd.key)
			}
		}
	}
	v := Verdict{
		Name: "bounded-staleness",
		Pass: stale == 0 && phantom == 0,
		Metrics: map[string]float64{
			"reads_checked": float64(checked),
			"reads_stale":   float64(stale),
			"reads_phantom": float64(phantom),
			"worst_lag_ms":  float64(worst.Milliseconds()),
			"bound_ms":      float64(bound.Milliseconds()),
		},
	}
	if v.Pass {
		v.Detail = fmt.Sprintf("%d reads within %v (worst lag %v)", checked, bound, worst.Round(time.Millisecond))
	} else {
		v.Detail = firstBad
	}
	return v
}

// CheckWriteAvailability verifies writes kept being acknowledged: the
// longest stretch of the history with no acknowledged write — from the
// first write issued to the first ack, between consecutive acks, and
// from the last ack to the last write issued — is at most maxGap.  A
// history without an acknowledged write fails.
func (r *Recorder) CheckWriteAvailability(maxGap time.Duration) Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	var acks []time.Time
	var first, last time.Time
	for _, h := range r.keys {
		for _, w := range h.writes {
			widen(&first, &last, w.start)
			if w.acked {
				acks = append(acks, w.ackedAt)
			}
		}
	}
	v := Verdict{Name: "write-availability", Metrics: map[string]float64{
		"acked_writes": float64(len(acks)),
		"bound_ms":     float64(maxGap.Milliseconds()),
	}}
	if len(acks) == 0 {
		v.Detail = "no acknowledged write in the history"
		return v
	}
	worst, worstFrom := longestGap(first, acks, last)
	v.Pass = worst <= maxGap
	v.Metrics["max_gap_ms"] = float64(worst.Milliseconds())
	v.Detail = fmt.Sprintf("longest gap without an acked write %v, from +%v (bound %v)",
		worst.Round(time.Millisecond), worstFrom.Sub(first).Round(time.Millisecond), maxGap)
	return v
}

// CheckReadAvailability verifies reads kept being answered: the longest
// stretch of the history with no answered read — from the first read
// issued (answered or failed) to the first answer, between consecutive
// answers, and from the last answer to the last read issued — is at most
// maxGap.  A history without an answered read fails.  The metrics also
// carry how many reads failed and the window from the first failed read
// to the last.
func (r *Recorder) CheckReadAvailability(maxGap time.Duration) Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first, last, failFirst, failLast time.Time
	answers := make([]time.Time, 0, len(r.reads))
	for _, rd := range r.reads {
		answers = append(answers, rd.end)
		widen(&first, &last, rd.start)
	}
	for _, rd := range r.failed {
		widen(&first, &last, rd.start)
		widen(&failFirst, &failLast, rd.start)
	}
	v := Verdict{Name: "read-availability", Metrics: map[string]float64{
		"answered_reads":   float64(len(answers)),
		"reads_failed":     float64(len(r.failed)),
		"failed_window_ms": float64(failLast.Sub(failFirst).Milliseconds()),
		"bound_ms":         float64(maxGap.Milliseconds()),
	}}
	if len(answers) == 0 {
		v.Detail = "no answered read in the history"
		return v
	}
	worst, worstFrom := longestGap(first, answers, last)
	v.Pass = worst <= maxGap
	v.Metrics["max_gap_ms"] = float64(worst.Milliseconds())
	v.Detail = fmt.Sprintf("longest gap without an answered read %v, from +%v (bound %v; %d failed)",
		worst.Round(time.Millisecond), worstFrom.Sub(first).Round(time.Millisecond), maxGap, len(r.failed))
	return v
}

// widen stretches the span [*lo, *hi] (zero: empty) to cover t.
func widen(lo, hi *time.Time, t time.Time) {
	if lo.IsZero() || t.Before(*lo) {
		*lo = t
	}
	if t.After(*hi) {
		*hi = t
	}
}

// longestGap sorts marks and returns the longest stretch from first to
// the first mark, between consecutive marks, and from the last mark to
// last, together with where that stretch began.
func longestGap(first time.Time, marks []time.Time, last time.Time) (time.Duration, time.Time) {
	sort.Slice(marks, func(i, j int) bool { return marks[i].Before(marks[j]) })
	var worst time.Duration
	worstFrom, prev := first, first
	for _, t := range append(marks, last) {
		if gap := t.Sub(prev); gap > worst {
			worst, worstFrom = gap, prev
		}
		prev = t
	}
	return worst, worstFrom
}

// ConvergenceProbe samples the cluster's repair progress: repairs is a
// monotone counter of replica-repair pushes (anti-entropy), sigma the
// balancer's current quota deviation σ̄(Qv) in percent.
type ConvergenceProbe func() (repairs int64, sigma float64)

// CheckConvergence verifies the cluster re-converges after Heal: polling
// every poll, the repair counter must go quiet (unchanged for settle
// consecutive polls) with sigma ≤ maxSigma, all within `within` of
// healedAt.  The convergence time reported is from healedAt to the
// start of the quiet streak.
func CheckConvergence(healedAt time.Time, within, poll time.Duration, settle int, maxSigma float64, probe ConvergenceProbe) Verdict {
	if settle < 1 {
		settle = 1
	}
	deadline := healedAt.Add(within)
	lastRepairs, lastSigma := probe()
	quietSince := time.Now()
	quiet := 0
	for {
		time.Sleep(poll)
		repairs, sigma := probe()
		lastSigma = sigma
		if repairs != lastRepairs || sigma > maxSigma {
			lastRepairs, quiet = repairs, 0
			quietSince = time.Now()
		} else {
			quiet++
			if quiet >= settle {
				return Verdict{
					Name: "convergence-after-heal",
					Pass: true,
					Detail: fmt.Sprintf("repairs quiet and σ̄(Qv) = %.2f%% ≤ %.2f%% %v after heal",
						sigma, maxSigma, quietSince.Sub(healedAt).Round(time.Millisecond)),
					Metrics: map[string]float64{
						"convergence_ms": float64(quietSince.Sub(healedAt).Milliseconds()),
						"sigma_pct":      sigma,
						"max_sigma_pct":  maxSigma,
					},
				}
			}
		}
		if time.Now().After(deadline) {
			return Verdict{
				Name: "convergence-after-heal",
				Pass: false,
				Detail: fmt.Sprintf("still repairing or σ̄(Qv) = %.2f%% > %.2f%% at deadline (%v after heal)",
					lastSigma, maxSigma, within),
				Metrics: map[string]float64{
					"convergence_ms": -1,
					"sigma_pct":      lastSigma,
					"max_sigma_pct":  maxSigma,
				},
			}
		}
	}
}
