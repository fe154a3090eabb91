package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dbdht/client"
	"dbdht/internal/metrics"
)

// env is what every stage needs to know about where it runs.
type env struct {
	dhtdBin string
	outDir  string // bench/results/<run>: logs and span dumps
	tmpDir  string // .bench_build/tmp/<run>: data dirs, removed at exit
	prof    profile
	seed    int64
	window  time.Duration
	logf    func(format string, args ...any)
}

// subWindows is how many equal slices of the timed window are reported
// beside the whole.
const subWindows = 3

// dataRoutes are the HTTP routes the load clients use.
var dataRoutes = []string{"POST /v1/kv:batch", "PUT /v1/kv/{key...}", "GET /v1/kv/{key...}"}

// runE2E runs one workload end to end against a dhtd subprocess and
// returns its record.  It always reaps the child and removes its data
// dir, whatever fails.
func runE2E(ctx context.Context, e env, w workloadSpec) (*workloadRecord, error) {
	rec := &workloadRecord{Why: w.Why, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	var err error
	if rec.Fingerprint, err = streamFingerprint(e.seed, w, clients, e.prof.Keyspace); err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.outDir, "dhtd.log")

	// Set-up, repeated: exec → ready → every key preloaded.  The last
	// instance serves the run.
	var (
		d       *dhtd
		dataDir string
		setups  []float64
	)
	defer func() {
		if d != nil {
			d.kill()
		}
		os.RemoveAll(dataDir)
	}()
	for i := 0; i < e.prof.Setups; i++ {
		if d != nil {
			d.kill()
			os.RemoveAll(dataDir)
		}
		dataDir = filepath.Join(e.tmpDir, fmt.Sprintf("%s-data-%d", w.Name, i))
		begin := time.Now()
		if d, err = startDhtd(ctx, e.dhtdBin, w, dataDir, logPath); err != nil {
			return nil, err
		}
		if err := preload(ctx, d.url, e.prof.Keyspace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	sort.Float64s(setups)
	rec.EndToEnd["setup_s"] = value{Value: setups[len(setups)/2], Unit: "s", Sub: setups, Spread: spreadOf(setups),
		Note: fmt.Sprintf("median of %d set-ups", len(setups))}

	// Load: warm-up, then the timed window.
	admin := client.New(d.url, client.WithRequestTimeout(adminTimeout))
	if w.Replicas > 1 {
		if err := settle(ctx, admin); err != nil {
			return nil, err
		}
	}
	epoch, stopLoad, err := startClients(ctx, e, w, func() *client.Client { return newLoadClient(d.url) }, nil)
	if err != nil {
		return nil, err
	}
	defer stopLoad()
	if err := sleepCtx(ctx, e.prof.Warmup); err != nil {
		return nil, err
	}
	before, err := scrapeMetrics(ctx, admin)
	if err != nil {
		return nil, err
	}
	usage := make([]procUsage, subWindows+1)
	if usage[0], err = d.usage(); err != nil {
		return nil, err
	}
	winStart := time.Since(epoch)

	// The membership plan starts a sixth into the window.  The joins run
	// under load.  The leaves wait until the load has stopped, unless the
	// workload asks otherwise: at the seed commit a RemoveSnode under load
	// leaves a batch in flight to the leaver hanging until the client's
	// deadline (README "Known limits"), and a workload must not fail.
	var (
		schedDone = make(chan struct{})
		joined    []int
		rebalance time.Duration
		schedErr  error
	)
	if w.Elastic {
		go func() {
			defer close(schedDone)
			if schedErr = sleepCtx(ctx, e.window/6); schedErr != nil {
				return
			}
			if joined, rebalance, schedErr = runJoins(ctx, admin); schedErr == nil && w.LeaveUnderLoad {
				var took time.Duration
				took, schedErr = runLeaves(ctx, admin, joined)
				rebalance += took
			}
		}()
	} else {
		close(schedDone)
	}
	for i := 1; i <= subWindows; i++ {
		if err := sleepCtx(ctx, winStart+time.Duration(i)*e.window/subWindows-time.Since(epoch)); err != nil {
			return nil, err
		}
		if usage[i], err = d.usage(); err != nil {
			return nil, err
		}
	}
	// The load stays on until the membership schedule is through, so every
	// migration runs under traffic; the window itself is not stretched.
	select {
	case <-schedDone:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if schedErr != nil {
		return nil, fmt.Errorf("membership schedule: %w", schedErr)
	}
	logs := stopLoad()
	if w.Elastic && !w.LeaveUnderLoad {
		took, err := runLeaves(ctx, admin, joined)
		if err != nil {
			return nil, fmt.Errorf("membership schedule: %w", err)
		}
		rebalance += took
	}
	after, err := scrapeMetrics(ctx, admin)
	if err != nil {
		return nil, err
	}

	win := summarize(logs, winStart, winStart+e.window)
	interval := summarize(logs, winStart, math.MaxInt64)
	rec.Requests, rec.Failed = win.requests, win.failed
	for _, l := range logs {
		rec.Errors = append(rec.Errors, l.errs...)
		rec.badReads += l.badReads
		if l.badReads > 0 {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%d reads returned a missing or corrupt value", l.badReads))
		}
	}
	if win.keys == 0 {
		return rec, fmt.Errorf("%s: no key was acknowledged in the window: %v", w.Name, rec.Errors)
	}

	m := rec.EndToEnd
	windowMetrics(m, logs, winStart, e.window, usage)
	m.set("failed_frac", float64(win.failed)/float64(win.requests), "ratio")
	m.set("server_peak_rss_mb", usage[subWindows].peakRSSMB, "MB")
	if w.Durable && interval.writeKeys > 0 {
		userBytes := float64(interval.writeKeys) * float64(len(keyName(0))+valueSize)
		m.set("wal_bytes_per_user_byte", delta(before, after, "dbdht_wal_bytes_total")/userBytes, "ratio")
	}
	if w.Elastic {
		m.set("rebalance_s", rebalance.Seconds(), "s")
		m.set("sigma_qv_pct", 100*after.sum("dbdht_balance_sigma_qv", nil), "%")
		m.set("moved_keys_per_stored_key", delta(before, after, "dbdht_keys_moved_total")/after.sum("dbdht_keys", nil), "ratio")
	}
	scrapedLayers(rec.PerLayer, before, after, &interval)

	// Durability: kill without warning, restart on the same directory, and
	// verify against what the restarted daemon recovered.
	if w.KillRestart {
		killed := time.Now()
		d.kill()
		if d, err = startDhtd(ctx, e.dhtdBin, w, dataDir, logPath); err != nil {
			return rec, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if _, _, err := client.New(d.url, client.WithRequestTimeout(adminTimeout)).Get(ctx, keyName(0)); err != nil {
			return rec, fmt.Errorf("first read after restart: %w", err)
		}
		m.set("recovery_s", time.Since(killed).Seconds(), "s")
	}
	lost, reasons, err := readBack(ctx, d.url, e.prof.Keyspace, logs)
	if err != nil {
		return rec, err
	}
	m.set("acked_lost", float64(lost), "count")
	rec.Errors = append(rec.Errors, reasons...)
	return rec, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// settle waits until dhtd's journals and replica repairs have been quiet
// for one anti-entropy interval (1 s).  The tail of the preload races the
// anti-entropy pass, and the repairs it triggers would otherwise be
// journaled inside the window, where a read-only workload must show
// exactly zero WAL and replication work.  If the daemon never goes quiet
// the run goes ahead and the figures show it.
func settle(ctx context.Context, admin *client.Client) error {
	prev := -1.0
	for try := 0; try < 8; try++ {
		sc, err := scrapeMetrics(ctx, admin)
		if err != nil {
			return err
		}
		cur := sc.sum("dbdht_wal_appends_total", nil) + sc.sum("dbdht_repl_repairs_total", nil)
		if cur == prev {
			return nil
		}
		prev = cur
		if err := sleepCtx(ctx, 1100*time.Millisecond); err != nil {
			return err
		}
	}
	return nil
}

func scrapeMetrics(ctx context.Context, cl *client.Client) (scrape, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /v1/metrics: %w", err)
	}
	return parseScrape(text)
}

func delta(before, after scrape, name string) float64 {
	return after.sum(name, nil) - before.sum(name, nil)
}

// windowMetrics fills in the rate and latency figures of the timed
// window, each whole and per sub-window with the sub-windows' spread.
// usage holds dhtd's /proc readings at the sub-window boundaries.
func windowMetrics(m metricSet, logs []*clientLog, winStart, window time.Duration, usage []procUsage) {
	win := summarize(logs, winStart, winStart+window)
	subs := make([]sliceStats, subWindows)
	for i := range subs {
		subs[i] = summarize(logs, winStart+time.Duration(i)*window/subWindows, winStart+time.Duration(i+1)*window/subWindows)
	}
	withSubs := func(name, unit string, samples int, of func(s *sliceStats, from, to procUsage) float64) {
		v := value{Value: of(&win, usage[0], usage[subWindows]), Unit: unit, Samples: samples, Sub: make([]float64, subWindows)}
		for i := range v.Sub {
			v.Sub[i] = of(&subs[i], usage[i], usage[i+1])
		}
		v.Spread = spreadOf(v.Sub)
		m[name] = v
	}
	withSubs("throughput_keys_per_s", "keys/s", win.requests, func(s *sliceStats, _, _ procUsage) float64 {
		secs := window.Seconds()
		if s != &win {
			secs /= subWindows
		}
		return float64(s.keys) / secs
	})
	withSubs("server_cpu_s_per_mkeys", "s", 0, func(s *sliceStats, from, to procUsage) float64 {
		return cpuPerMkeys(from, to, s.keys)
	})
	p50 := func(k *kindStats) time.Duration { return k.p50 }
	p99 := func(k *kindStats) time.Duration { return k.p99 }
	for k, name := range kindNames {
		ks := win.kind[k]
		if ks.n == 0 {
			continue
		}
		withSubs(name+"_p50_ms", "ms", ks.n, func(s *sliceStats, _, _ procUsage) float64 { return ms(s.kind[k].p50) })
		withSubs(name+"_p99_ms", "ms", ks.n, func(s *sliceStats, _, _ procUsage) float64 { return ms(s.kind[k].p99) })
		if ks.tailQ < 0.99 {
			v := m[name+"_p99_ms"]
			v.Note = fmt.Sprintf("p%.1f: too few samples for ten beyond p99", 100*ks.tailQ)
			m[name+"_p99_ms"] = v
		}
	}
	ok := win.requests - win.failed
	withSubs("latency_p50_ms", "ms", ok, func(s *sliceStats, _, _ procUsage) float64 { return s.blended(p50) })
	withSubs("latency_p99_ms", "ms", ok, func(s *sliceStats, _, _ procUsage) float64 { return s.blended(p99) })
}

func cpuPerMkeys(a, b procUsage, keys int) float64 {
	if keys == 0 {
		return 0
	}
	return (b.cpuSeconds - a.cpuSeconds) / (float64(keys) / 1e6)
}

// runJoins is the growth half of the elastic workload's fixed membership
// plan: four joins of four vnodes each.  It returns the joiners and the
// wall time the four steps took.
func runJoins(ctx context.Context, admin *client.Client) ([]int, time.Duration, error) {
	begin := time.Now()
	var joined []int
	for i := 0; i < elasticJoins; i++ {
		id, err := admin.AddSnode(ctx)
		if err != nil {
			return nil, 0, fmt.Errorf("AddSnode: %w", err)
		}
		if _, err := admin.SetEnrollment(ctx, id, elasticEnroll); err != nil {
			return nil, 0, fmt.Errorf("SetEnrollment(%d, %d): %w", id, elasticEnroll, err)
		}
		joined = append(joined, id)
	}
	return joined, time.Since(begin), nil
}

// runLeaves is the other half: the first two joiners leave.
func runLeaves(ctx context.Context, admin *client.Client, joined []int) (time.Duration, error) {
	begin := time.Now()
	for _, id := range joined[:elasticLeaves] {
		if err := admin.RemoveSnode(ctx, id); err != nil {
			return 0, fmt.Errorf("RemoveSnode(%d): %w", id, err)
		}
	}
	return time.Since(begin), nil
}

// scrapedLayers derives the per-layer figures that dhtd's existing
// /v1/metrics series give from outside: deltas between the scrape at
// window start and the one after the load stopped, over the keys and
// requests the clients completed in between.
func scrapedLayers(out metricSet, before, after scrape, interval *sliceStats) {
	keys := math.Max(1, float64(interval.keys))
	reqs := math.Max(1, float64(interval.requests))
	// Replication and journaling happen per written key; a read-only
	// workload divides by 1, so its bypass zeros stay exact zeros.
	wkeys := math.Max(1, float64(interval.writeKeys))
	wreqs := math.Max(1, float64(interval.writeReqs))
	hist := func(name string, labels map[string]string) metrics.HistogramSnapshot {
		return histDelta(before.histogram(name, labels), after.histogram(name, labels))
	}
	quantiles := func(prefix string, h metrics.HistogramSnapshot) {
		out.set(prefix+"_p50_ms", 1e3*h.Quantile(0.50), "ms")
		out.set(prefix+"_p99_ms", 1e3*h.Quantile(0.99), "ms")
	}
	var http metrics.HistogramSnapshot
	for _, route := range dataRoutes {
		http.Merge(hist("dbdht_http_request_seconds", map[string]string{"route": route}))
	}
	quantiles("server.http", http)
	all := append(append([]time.Duration(nil), interval.kind[kindWrite].lats...), interval.kind[kindRead].lats...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out.set("client.overhead_p50_ms", ms(percentile(all, 0.5))-1e3*http.Quantile(0.5), "ms")

	quantiles("cluster.batch_rpc", hist("dbdht_batch_rpc_seconds", nil))
	out.set("cluster.batches_per_request", delta(before, after, "dbdht_batches_total")/reqs, "ratio")
	out.set("cluster.msgs_per_key", delta(before, after, "dbdht_msgs_total")/keys, "ratio")
	out.set("cluster.forwards_per_key", delta(before, after, "dbdht_forwards_total")/keys, "ratio")
	out.set("cluster.requeues_per_key", delta(before, after, "dbdht_requeues_total")/keys, "ratio")
	out.set("cluster.repl_writes_per_key", delta(before, after, "dbdht_repl_writes_total")/wkeys, "ratio")
	quantiles("cluster.repl_ack_wait", hist("dbdht_replica_ack_wait_seconds", nil))
	out.set("cluster.repl_lagged", delta(before, after, "dbdht_repl_lagged_total"), "count")

	quantiles("wal.durable_wait", hist("dbdht_wal_durable_wait_seconds", nil))
	appends, fsyncs := delta(before, after, "dbdht_wal_appends_total"), delta(before, after, "dbdht_wal_fsyncs_total")
	out.set("wal.appends_per_key", appends/wkeys, "ratio")
	out.set("wal.bytes_per_key", delta(before, after, "dbdht_wal_bytes_total")/wkeys, "B")
	out.set("wal.fsyncs_per_request", fsyncs/wreqs, "ratio")
	out.set("wal.records_per_fsync", appends/math.Max(1, fsyncs), "ratio")

	moved := delta(before, after, "dbdht_keys_moved_total")
	out.set("migrate.chunks_per_kkeys_moved", delta(before, after, "dbdht_migration_chunks_total")/math.Max(1, moved/1000), "ratio")
	out.set("migrate.chunk_p50_ms", 1e3*hist("dbdht_migration_chunk_seconds", nil).Quantile(0.5), "ms")
	out.set("migrate.aborts", delta(before, after, "dbdht_migration_aborts_total"), "count")
	out.set("migrate.freeze_timeouts", delta(before, after, "dbdht_freeze_timeouts_total"), "count")
}
