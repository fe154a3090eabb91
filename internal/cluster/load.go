package cluster

import (
	"time"

	"dbdht/internal/cluster/transport"
)

// Per-bucket load accounting.  The §2.5 algorithm balances *quotas* —
// which balances load only under uniform access (the paper's §6 caveat,
// made quantitative by the simulator's skew experiment).  The autonomous
// balancer (balancer.go) therefore also observes real traffic: every
// bucket keeps read/write/byte window counters, bumped on the data path,
// that a background ticker decays into EWMA rates; load reports roll
// them up per snode for the cluster handle's control loop and the
// dbdht_balance_* metrics.

// loadAlpha is the EWMA smoothing factor per load tick: ~0.5 keeps the
// rates responsive to a shifting hot spot (a few ticks of memory) without
// jittering on a single bursty interval.
const loadAlpha = 0.5

// loadRates is the decayed per-second view of one bucket's traffic.
// Guarded by the bucket's mutex, like the bucket's data.
type loadRates struct {
	reads, writes, bytes float64
}

// noteReads/noteWrites bump the bucket's window counters; called on the
// batch apply path with no extra locking (the counters are atomic).
func (b *bucket) noteReads(n, bytes int64) {
	b.nReads.Add(n)
	b.nBytes.Add(bytes)
}

func (b *bucket) noteWrites(n, bytes int64) {
	b.nWrites.Add(n)
	b.nBytes.Add(bytes)
}

// loadLoop periodically folds every owned bucket's window counters into
// its EWMA rates.  Started by newSnode.
func (s *Snode) loadLoop() {
	t := time.NewTicker(s.cfg.LoadInterval)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-s.stopCh:
			return
		case now := <-t.C:
			dt := now.Sub(last).Seconds()
			last = now
			s.decayLoads(dt)
		}
	}
}

// decayLoads advances every owned bucket's EWMA by one window of dt
// seconds.  The bucket list is snapshotted under s.mu; each bucket's
// update takes only its own lock, so the pass never stalls the data plane
// as a whole.
func (s *Snode) decayLoads(dt float64) {
	if dt <= 0 {
		return
	}
	s.mu.Lock()
	bks := make([]*bucket, 0, 64)
	for _, vs := range s.vnodes {
		for _, bk := range vs.parts {
			bks = append(bks, bk)
		}
	}
	s.mu.Unlock()
	for _, bk := range bks {
		r := float64(bk.nReads.Swap(0)) / dt
		w := float64(bk.nWrites.Swap(0)) / dt
		by := float64(bk.nBytes.Swap(0)) / dt
		bk.mu.Lock()
		bk.rates.reads = loadAlpha*r + (1-loadAlpha)*bk.rates.reads
		bk.rates.writes = loadAlpha*w + (1-loadAlpha)*bk.rates.writes
		bk.rates.bytes = loadAlpha*by + (1-loadAlpha)*bk.rates.bytes
		bk.mu.Unlock()
	}
}

// loadReportReq asks an snode for its rolled-up load report; the cluster
// handle's balancer (and the metrics scrape) fans it out to every snode.
type loadReportReq struct {
	Op uint64
}

// loadReportResp is one snode's aggregate: enrollment, stored keys, the
// quota it owns (fraction of R_h across its joined vnodes' partitions)
// and its decayed traffic rates.
type loadReportResp struct {
	Op     uint64
	Vnodes int
	Keys   int
	Quota  float64
	Reads  float64 // EWMA ops/s
	Writes float64 // EWMA ops/s
	Bytes  float64 // EWMA bytes/s
}

func (m loadReportResp) replyOp() uint64  { return m.Op }
func (m loadReportResp) replyErr() string { return "" }

// handleLoadReport rolls the snode's owned buckets up into one report.
// Runs inline: no nested RPCs, one pass under s.mu with per-bucket read
// locks (the same nesting order as the batch path).
func (s *Snode) handleLoadReport(m loadReportReq, from transport.NodeID) {
	resp := loadReportResp{Op: m.Op}
	s.mu.Lock()
	for _, vs := range s.vnodes {
		if !vs.joined {
			continue
		}
		resp.Vnodes++
		for p, bk := range vs.parts {
			resp.Quota += p.Quota()
			bk.mu.RLock()
			resp.Keys += bk.kv.len()
			resp.Reads += bk.rates.reads
			resp.Writes += bk.rates.writes
			resp.Bytes += bk.rates.bytes
			bk.mu.RUnlock()
		}
	}
	s.mu.Unlock()
	s.send(from, untraced, resp)
}
