package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dbdht/internal/balance"
	"dbdht/internal/cluster/transport"
)

// Autonomous load-aware balancement.  The paper's machinery balances
// quotas *within* the scope of each balancement event — a join or a leave
// — but nothing in the runtime decided WHEN to hold those events: after
// boot, enrollment was only ever adjusted by hand (SetEnrollment).  This
// file closes the loop: a background controller at the cluster handle
// observes every snode's real load (per-bucket EWMA rates, load.go) and
// its share of the hash space, compares them against configurable
// capacity weights (heterogeneous snodes, base-model feature (a)), and
// when the capacity-normalized per-snode quota deviation exceeds a
// threshold it adjusts per-snode vnode enrollment toward
// capacity-proportional targets (balance.WeightedTargets).  The actual
// partition migrations are *delegated*: every enrollment step is a §3.6
// join or leave executed by the affected group's leader, so concurrent
// balancement work spreads across group leaders exactly as the paper's
// §3.1 parallelism model prescribes — the controller only decides where
// vnodes should live.
//
// Load-awareness: quota drives the convergence metric (σ of Q_s/w_s —
// balancing it is what the §2.5 algorithm can guarantee), while the
// observed traffic rates order the work: among equally over-enrolled
// snodes the hottest one sheds first, so a hot spot drains before a
// merely data-heavy cold spot.

// BalanceConfig tunes the autonomous balancer.
type BalanceConfig struct {
	// Interval paces the background control loop; 0 (the default) leaves
	// the loop off — BalanceNow still runs rounds on demand.
	Interval time.Duration
	// QuotaDeviation is the action threshold: a round only moves
	// enrollment when the relative stddev of capacity-normalized per-snode
	// quotas exceeds it (default 0.15).
	QuotaDeviation float64
	// MaxMovesPerRound bounds the enrollment adjustments (vnode creates
	// plus removes) of one round, so a badly skewed cluster converges in
	// measured steps instead of one migration storm (default 2).
	MaxMovesPerRound int
}

// SnodeLoad is one snode's load report as the balancer saw it.
type SnodeLoad struct {
	Snode    transport.NodeID
	Capacity float64
	Vnodes   int
	Keys     int
	Quota    float64 // fraction of R_h owned
	Reads    float64 // EWMA ops/s
	Writes   float64 // EWMA ops/s
	Bytes    float64 // EWMA bytes/s
}

// BalanceRound is the outcome of one control-loop round.
type BalanceRound struct {
	// Sigma is the relative stddev of capacity-normalized per-snode
	// quotas (Q_s/w_s) before any action this round.
	Sigma float64
	// Moves is the number of enrollment adjustments performed.
	Moves int
	// Loads are the per-snode reports the decision was based on.
	Loads []SnodeLoad
}

// BalancerStats aggregates the balancer's lifetime counters.
type BalancerStats struct {
	Rounds    int64   // control rounds run
	Moves     int64   // enrollment adjustments performed
	LastSigma float64 // capacity-normalized quota deviation at the last round
}

// BalancerStats returns the balancer's lifetime counters.
func (c *Cluster) BalancerStats() BalancerStats {
	return BalancerStats{
		Rounds:    c.balRounds.Load(),
		Moves:     c.balMoves.Load(),
		LastSigma: math.Float64frombits(c.balSigma.Load()),
	}
}

// balancerLoop runs rounds until the cluster shuts down.  Started by New
// when Balance.Interval > 0.
func (c *Cluster) balancerLoop() {
	t := time.NewTicker(c.cfg.Balance.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			_, _ = c.BalanceNow()
		}
	}
}

// LoadReport collects every snode's current load report (no balancing
// action).  Snodes that fail to answer — e.g. mid-departure — are
// omitted.
func (c *Cluster) LoadReport() ([]SnodeLoad, error) {
	c.mu.Lock()
	ids := append([]transport.NodeID(nil), c.order...)
	caps := make(map[transport.NodeID]float64, len(ids))
	for _, id := range ids {
		caps[id] = c.caps[id]
	}
	c.mu.Unlock()
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: no snodes")
	}
	reps := make([]loadReportResp, len(ids))
	errs := fanOut(len(ids), func(i int) (err error) {
		reps[i], err = ask[loadReportResp](&c.endpoint, ids[i], untraced, func(op uint64) transport.WireMessage {
			return loadReportReq{Op: op}
		})
		return err
	})
	loads := make([]SnodeLoad, 0, len(ids))
	for i, id := range ids {
		if errs[i] != nil {
			continue
		}
		w := caps[id]
		if w <= 0 {
			w = 1
		}
		r := reps[i]
		loads = append(loads, SnodeLoad{
			Snode: id, Capacity: w,
			Vnodes: r.Vnodes, Keys: r.Keys, Quota: r.Quota,
			Reads: r.Reads, Writes: r.Writes, Bytes: r.Bytes,
		})
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("cluster: no snode answered its load report")
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Snode < loads[j].Snode })
	return loads, nil
}

// QuotaSigma is the balancer's convergence metric σ̄: the relative
// stddev of the capacity-normalized per-snode quotas Q_s/w_s in a load
// report.  BalanceNow stops moving enrollment once it is at most
// BalanceConfig.QuotaDeviation.
func QuotaSigma(loads []SnodeLoad) float64 {
	if len(loads) == 0 {
		return 0
	}
	norm := make([]float64, len(loads))
	mean := 0.0
	for i, l := range loads {
		norm[i] = l.Quota / l.Capacity
		mean += norm[i]
	}
	mean /= float64(len(norm))
	if mean == 0 {
		return 0
	}
	sum := 0.0
	for _, q := range norm {
		d := q - mean
		sum += d * d
	}
	return math.Sqrt(sum/float64(len(norm))) / mean
}

// loadPerCapacity orders urgency: observed traffic normalized by the
// snode's capacity weight, falling back to quota when the cluster is idle.
func (l SnodeLoad) loadPerCapacity() float64 {
	ops := l.Reads + l.Writes
	if ops > 0 {
		return ops / l.Capacity
	}
	return l.Quota / l.Capacity
}

// BalanceNow runs one balancement round: collect load reports, measure
// the capacity-normalized quota deviation, and — only if it exceeds the
// configured threshold — move vnode enrollment toward
// capacity-proportional targets, at most MaxMovesPerRound steps.  Rounds
// are serialized; the background loop calls this on its ticker.
func (c *Cluster) BalanceNow() (BalanceRound, error) {
	c.balMu.Lock()
	defer c.balMu.Unlock()
	loads, err := c.LoadReport()
	if err != nil {
		return BalanceRound{}, err
	}
	round := BalanceRound{Loads: loads, Sigma: QuotaSigma(loads)}
	c.balRounds.Add(1)
	c.balSigma.Store(math.Float64bits(round.Sigma))
	if round.Sigma <= c.cfg.Balance.QuotaDeviation {
		return round, nil
	}

	// Work on a copy: the move loop tracks enrollment as it changes it,
	// and round.Loads must stay the pristine reports the decision was
	// based on.
	work := append([]SnodeLoad(nil), loads...)
	totalV := 0
	weights := make(map[transport.NodeID]float64, len(work))
	byID := make(map[transport.NodeID]*SnodeLoad, len(work))
	for i := range work {
		l := &work[i]
		totalV += l.Vnodes
		weights[l.Snode] = l.Capacity
		byID[l.Snode] = l
	}
	if totalV == 0 {
		return round, fmt.Errorf("cluster: balance: no vnodes enrolled")
	}
	targets, err := balance.WeightedTargets(weights, totalV,
		func(a, b transport.NodeID) bool { return a < b })
	if err != nil {
		return round, err
	}

	// Donors shed a vnode (over target), receivers gain one (under
	// target).  Load per capacity orders the donors — the hottest
	// overloaded snode sheds first — and the neediest receiver fills
	// first.
	var donors, receivers []*SnodeLoad
	for _, l := range byID {
		switch {
		case l.Vnodes > targets[l.Snode]:
			donors = append(donors, l)
		case l.Vnodes < targets[l.Snode]:
			receivers = append(receivers, l)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if di, dj := donors[i].loadPerCapacity(), donors[j].loadPerCapacity(); di != dj {
			return di > dj
		}
		return donors[i].Snode < donors[j].Snode
	})
	sort.Slice(receivers, func(i, j int) bool {
		di := targets[receivers[i].Snode] - receivers[i].Vnodes
		dj := targets[receivers[j].Snode] - receivers[j].Vnodes
		if di != dj {
			return di > dj
		}
		return receivers[i].Snode < receivers[j].Snode
	})

	if len(donors) == 0 && len(receivers) == 0 {
		// Enrollment is already capacity-proportional but the quotas are
		// not (e.g. uneven partition counts across groups): shift one
		// vnode from the largest normalized quota to the smallest.
		var hi, lo *SnodeLoad
		for _, l := range byID {
			if (hi == nil || l.Quota/l.Capacity > hi.Quota/hi.Capacity) && l.Vnodes > 1 {
				hi = l
			}
			if lo == nil || l.Quota/l.Capacity < lo.Quota/lo.Capacity {
				lo = l
			}
		}
		if hi == nil || lo == nil || hi == lo {
			return round, nil
		}
		donors, receivers = []*SnodeLoad{hi}, []*SnodeLoad{lo}
		targets[hi.Snode] = hi.Vnodes - 1
		targets[lo.Snode] = lo.Vnodes + 1
	}

	// Alternate create and remove steps — growth first, so capacity is in
	// place before the shed migrations land — until the round budget or
	// both lists run out.  Every step is one §3.6 join/leave executed by
	// the affected group's leader.
	var firstErr error
	for round.Moves < c.cfg.Balance.MaxMovesPerRound && (len(receivers) > 0 || len(donors) > 0) {
		acted := false
		if len(receivers) > 0 {
			r := receivers[0]
			if _, _, err := c.CreateVnode(r.Snode); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				receivers = receivers[1:]
			} else {
				round.Moves++
				r.Vnodes++
				if r.Vnodes >= targets[r.Snode] {
					receivers = receivers[1:]
				}
				acted = true
			}
		}
		if round.Moves >= c.cfg.Balance.MaxMovesPerRound {
			break
		}
		if len(donors) > 0 {
			d := donors[0]
			if err := c.shedVnode(d.Snode); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				donors = donors[1:]
			} else {
				round.Moves++
				d.Vnodes--
				if d.Vnodes <= targets[d.Snode] {
					donors = donors[1:]
				}
				acted = true
			}
		}
		if !acted {
			break
		}
	}
	c.balMoves.Add(int64(round.Moves))
	return round, firstErr
}

// shedVnode removes the most recently created vnode hosted at the snode.
func (c *Cluster) shedVnode(id transport.NodeID) error {
	c.mu.Lock()
	s, ok := c.snodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: snode %d not in cluster", id)
	}
	hosted := s.hostedVnodes()
	if len(hosted) == 0 {
		return fmt.Errorf("cluster: snode %d hosts no vnode to shed", id)
	}
	return c.RemoveVnode(hosted[len(hosted)-1])
}
