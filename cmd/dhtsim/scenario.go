// Live scenarios: a scenario is a value — {topology, workload, nemesis
// schedule, verdicts} — and runScenario is the one loop that executes
// any of them, so a new fault campaign is data, not code.  Every source
// of randomness (key choice, op mix, values, drop coins, jitter draws)
// derives from the -seed flag, so a failing run reproduces exactly from
// its printed seed.  Each run emits a BENCH_nemesis_<name>.json record
// with the machine-checked verdicts and the latency tail.
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"text/tabwriter"
	"time"

	"dbdht"
	"dbdht/internal/cluster"
	"dbdht/internal/invariant"
	"dbdht/internal/workload"
)

// scnTopo is the cluster a scenario runs on.  The runner adds the seed
// and the fault plans to opts, and for a durable topology a temp-dir
// WAL at fsync=batch.  Snodes join with the given capacity weights
// (unit weight past the end of the list); vnodes enroll round-robin.
type scnTopo struct {
	opts           dbdht.ClusterOptions
	snodes, vnodes int
	capacities     []float64
	durable        bool
}

// scnLoad is the workload a scenario applies: `workers` goroutines each
// run `ops` operations of a YCSB-style mix over a private zipfian or
// uniform key stream.  Per-worker key prefixes keep every key
// single-writer, which is what makes "the last acknowledged value" well
// defined for the invariant checkers.
type scnLoad struct {
	workers   int
	ops       int     // per worker; fixed so the key stream is a pure function of the seed
	rate      float64 // aggregate open-loop target op/s (0 = closed loop)
	keys      int     // per-worker key-space size
	zipf      float64 // zipf exponent (0 = uniform keys)
	ratios    workload.MixRatios
	valueSize int
	scanLen   int
	blobEvery int // every n-th op per worker writes a chunked blob instead
	blobSize  int
	blobChunk int
}

// scnEvent is one nemesis schedule entry, fired `at` after the workload
// starts.  heal marks the event the convergence clock starts from.
type scnEvent struct {
	at   time.Duration
	desc string
	heal bool
	do   func(*scnEnv) error
}

// scnEnv is what nemesis events and checks act on.
type scnEnv struct {
	c    *dbdht.Cluster
	net  *dbdht.NetFaults
	disk *dbdht.DiskFaults
	ids  []dbdht.SnodeID
	rec  *invariant.Recorder
}

// scenario is a complete live campaign.  Every run is judged by
// no-acked-write-loss, bounded-staleness and convergence-after-heal,
// then by the scenario's own checks.
type scenario struct {
	name, title string
	topo        scnTopo
	load        scnLoad
	nemesis     []scnEvent
	checks      []func(*scnEnv) invariant.Verdict
	staleBound  time.Duration // bounded-staleness budget for mid-run reads
	convergeIn  time.Duration // deadline for convergence after heal
	maxSigma    float64       // quota deviation [%] the cluster must settle under
}

// statCheck judges one cluster counter at the end of the run: the
// evidence that a nemesis exercised the mechanism it targets (wantZero
// false: the counter moved) or that a failure mode never fired
// (wantZero true).
func statCheck(name, counter string, get func(cluster.StatsSnapshot) int64, wantZero bool) func(*scnEnv) invariant.Verdict {
	return func(e *scnEnv) invariant.Verdict {
		n := get(e.c.StatsTotal())
		return invariant.Verdict{
			Name: name, Pass: (n == 0) == wantZero,
			Detail:  fmt.Sprintf("%s = %d", counter, n),
			Metrics: map[string]float64{counter: float64(n)},
		}
	}
}

var (
	promoted = statCheck("replicas-promoted", "promotions",
		func(s cluster.StatsSnapshot) int64 { return s.Promotions }, false)
	elected = statCheck("elections-ran", "elections",
		func(s cluster.StatsSnapshot) int64 { return s.Elections }, false)
	noFreezeTimeouts = statCheck("no-freeze-timeouts", "freeze_timeouts",
		func(s cluster.StatsSnapshot) int64 { return s.FreezeTimeouts }, true)
	// readsAnswered holds reads to the bound writes meet in failover:
	// a read of a dead primary's partition waits for its promotion too.
	readsAnswered = func(e *scnEnv) invariant.Verdict { return e.rec.CheckReadAvailability(2 * time.Second) }
)

// killRestart crashes snode i (its WAL buffer is abandoned, as in a
// kill -9) and restarts it under the same id from its data directory.
func killRestart(i int) func(*scnEnv) error {
	return func(e *scnEnv) error {
		if err := e.c.KillSnode(e.ids[i]); err != nil {
			return err
		}
		return e.c.RestartSnode(e.ids[i])
	}
}

// --- the scenario catalog ---

// catalog lists every live scenario in -exp all order.  Each call
// returns fresh values, so a caller may rescale one freely.
func catalog() []scenario {
	updates := func(f float64) workload.MixRatios { return workload.MixRatios{Update: f} }
	return []scenario{{
		// skew: capacities 1:1:4:4 start with equal enrollment, the wrong
		// shape for them.  Balancer rounds move enrollment toward
		// capacity-proportional targets — every partition handover a
		// live migration — under zipfian hot-spot writes, which
		// must never stall into a FreezeTimeout.
		name:  "skew",
		title: "live balancer, capacities 1:1:4:4 with equal enrollment, under zipfian hot-spot writes",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{
				Pmin: 32, Vmin: 8, RPCTimeout: 10 * time.Second, LoadInterval: 25 * time.Millisecond,
				Balance: dbdht.BalanceConfig{QuotaDeviation: 0.2, MaxMovesPerRound: 2},
			},
			snodes: 4, vnodes: 16, capacities: []float64{1, 1, 4, 4},
		},
		load: scnLoad{workers: 4, ops: 1500, rate: 1500, keys: 2000, zipf: 1.2, ratios: updates(0.9), valueSize: 64},
		nemesis: []scnEvent{{at: 500 * time.Millisecond, desc: "balancer rounds until σ̄ ≤ 20% (at most 40)", heal: true,
			do: func(e *scnEnv) error {
				for i := 0; i < 40; i++ {
					if r, err := e.c.BalanceNow(); err != nil || r.Sigma <= 0.2 {
						return err
					}
				}
				return nil
			}}},
		checks:     []func(*scnEnv) invariant.Verdict{noFreezeTimeouts},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 20,
	}, {
		// crash: one snode dies abruptly under load.  With R=2 replicas
		// are promoted, reads and writes of the dead primary's partitions
		// resume at the promoted primaries within the 2 s read bound, and
		// anti-entropy re-homes the replica sets on the survivors.
		name:  "crash",
		title: "R=2, 8 snodes: one snode killed under zipfian writes",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 2 * time.Second, AntiEntropyInterval: 50 * time.Millisecond},
			snodes: 8, vnodes: 32,
		},
		load: scnLoad{workers: 4, ops: 1500, rate: 1500, keys: 2000, zipf: 1.2, ratios: updates(0.8), valueSize: 64},
		nemesis: []scnEvent{{at: time.Second, desc: "kill snode 3",
			do: func(e *scnEnv) error { return e.c.KillSnode(e.ids[3]) }}},
		checks:     []func(*scnEnv) invariant.Verdict{readsAnswered},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// restart: no replica to fall back on, so the durability layer
		// alone carries every acked write through two crashes — the
		// first recovered from the WAL, the second from a snapshot plus
		// the WAL tail written after it.
		name:  "restart",
		title: "1 snode, R=1, fsync=batch: kill -9 + restart from the WAL, snapshot, kill -9 + restart from snapshot + tail",
		topo: scnTopo{
			opts:   dbdht.ClusterOptions{Pmin: 32, Vmin: 8, RPCTimeout: 2 * time.Second},
			snodes: 1, vnodes: 8, durable: true,
		},
		load: scnLoad{workers: 4, ops: 1000, rate: 1000, keys: 2000, zipf: 1.2, ratios: updates(0.8), valueSize: 64},
		nemesis: []scnEvent{
			{at: 1 * time.Second, desc: "kill -9 snode 0, restart from its WAL", do: killRestart(0)},
			{at: 2 * time.Second, desc: "snapshot", do: func(e *scnEnv) error { return e.c.SnapshotNow() }},
			{at: 3 * time.Second, desc: "kill -9 snode 0, restart from snapshot + WAL tail", heal: true, do: killRestart(0)},
		},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// failover: a primary dies under durable R=2 writes.  The
		// surviving replicas elect and promote new primaries with no
		// operator action, so writes keep being acknowledged.
		name:  "failover",
		title: "durable R=2, 6 snodes: a primary killed under sustained writes, replicas promote",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 5 * time.Second, AntiEntropyInterval: 25 * time.Millisecond},
			snodes: 6, vnodes: 24, durable: true,
		},
		load: scnLoad{workers: 4, ops: 1500, rate: 1500, keys: 4000, ratios: updates(0.9), valueSize: 64},
		nemesis: []scnEvent{{at: time.Second, desc: "kill snode 1",
			do: func(e *scnEnv) error { return e.c.KillSnode(e.ids[1]) }}},
		checks: []func(*scnEnv) invariant.Verdict{
			func(e *scnEnv) invariant.Verdict { return e.rec.CheckWriteAvailability(2 * time.Second) },
			readsAnswered, promoted, elected,
		},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// partition-kill: a partition isolates one snode while a primary
		// of some of its replicated partitions dies.  Both sides of the
		// cut hear the crash (client links stay healthy) and elect with
		// a partial view; after the heal, anti-entropy restores full
		// coverage.
		name:  "partition-kill",
		title: "R=2, 5 snodes: snode 4 partitioned off, snode 1 killed during the cut, then heal",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 16, Vmin: 8, Replicas: 2,
				RPCTimeout: 500 * time.Millisecond, AntiEntropyInterval: 50 * time.Millisecond},
			snodes: 5, vnodes: 10,
		},
		load: scnLoad{workers: 4, ops: 750, rate: 1000, keys: 2000, zipf: 1.2, ratios: updates(0.8), valueSize: 64},
		nemesis: []scnEvent{
			{at: 1000 * time.Millisecond, desc: "partition snodes {4} | {0..3}",
				do: func(e *scnEnv) error { e.net.Partition(e.ids[4:], e.ids[:4]); return nil }},
			{at: 1020 * time.Millisecond, desc: "kill snode 1",
				do: func(e *scnEnv) error { return e.c.KillSnode(e.ids[1]) }},
			{at: 1620 * time.Millisecond, desc: "heal", heal: true,
				do: func(e *scnEnv) error { e.net.Heal(); return nil }},
		},
		checks:     []func(*scnEnv) invariant.Verdict{readsAnswered, promoted, elected},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// partition: a 2s symmetric partition splits the snodes in half
		// (clients stay connected, so writes ack from primaries while
		// cross-cut replication lags), then heals.
		name:  "partition",
		title: "2s symmetric partition between snode halves under zipfian writes, then heal",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 1 * time.Second, AntiEntropyInterval: 50 * time.Millisecond},
			snodes: 6, vnodes: 24,
		},
		load: scnLoad{workers: 4, ops: 1500, rate: 1500, keys: 2000, zipf: 1.2, ratios: updates(0.8), valueSize: 64},
		nemesis: []scnEvent{
			{at: 1 * time.Second, desc: "partition snodes {0..2} | {3..5}",
				do: func(e *scnEnv) error { e.net.Partition(e.ids[:3], e.ids[3:]); return nil }},
			{at: 3 * time.Second, desc: "heal", heal: true,
				do: func(e *scnEnv) error { e.net.Heal(); return nil }},
		},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// slowlink: the classic flaky WAN link — nothing is down,
		// everything is slow; acks must survive it.
		name:  "slowlink",
		title: "250ms±50ms delay + 5% drop between snode halves under a read-mostly mix, then heal",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 1 * time.Second, AntiEntropyInterval: 50 * time.Millisecond},
			snodes: 6, vnodes: 24,
		},
		load: scnLoad{workers: 4, ops: 1200, rate: 1200, keys: 2000, zipf: 1.2, ratios: updates(0.3), valueSize: 64},
		nemesis: []scnEvent{
			{at: 1 * time.Second, desc: "slow+lossy link snodes {0..2} | {3..5} (250ms±50ms, drop 5%)",
				do: func(e *scnEnv) error {
					a, b := e.ids[:3], e.ids[3:]
					e.net.SetLinkDelay(a, b, 250*time.Millisecond, 50*time.Millisecond)
					e.net.SetLinkDelay(b, a, 250*time.Millisecond, 50*time.Millisecond)
					e.net.SetLinkDrop(a, b, 0.05)
					e.net.SetLinkDrop(b, a, 0.05)
					return nil
				}},
			{at: 3 * time.Second, desc: "heal", heal: true,
				do: func(e *scnEnv) error { e.net.Heal(); return nil }},
		},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// slowdisk: failed fsyncs re-buffer and retry, so durability
		// waits stretch but no acknowledged write may be lost.
		name:  "slowdisk",
		title: "slow (20ms±10ms) and failing (20%) fsyncs under fsync=batch writes, then heal",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 2 * time.Second, AntiEntropyInterval: 50 * time.Millisecond},
			snodes: 4, vnodes: 16, durable: true,
		},
		load: scnLoad{workers: 4, ops: 900, rate: 900, keys: 2000, zipf: 1.2, ratios: updates(0.8), valueSize: 64},
		nemesis: []scnEvent{
			{at: 1 * time.Second, desc: "slow fsync 20ms±10ms, fsync error rate 20%",
				do: func(e *scnEnv) error {
					e.disk.SetSlowFsync(20*time.Millisecond, 10*time.Millisecond)
					e.disk.SetFsyncErrorRate(0.2)
					return nil
				}},
			{at: 3 * time.Second, desc: "heal", heal: true,
				do: func(e *scnEnv) error { e.disk.Heal(); return nil }},
		},
		staleBound: 2 * time.Second, convergeIn: 20 * time.Second, maxSigma: 50,
	}, {
		// ycsb: no nemesis — the baseline the fault campaigns are read
		// against.
		name:  "ycsb",
		title: "YCSB-B (95/5) with scans and chunked 64KiB blobs, open-loop paced, no nemesis",
		topo: scnTopo{
			opts: dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Replicas: 2,
				RPCTimeout: 2 * time.Second, AntiEntropyInterval: 100 * time.Millisecond},
			snodes: 4, vnodes: 16,
		},
		load: scnLoad{
			workers: 4, ops: 2000, rate: 4000, keys: 4000, zipf: 1.2,
			ratios: workload.MixRatios{Update: 0.05, Scan: 0.05}, valueSize: 128, scanLen: 8,
			blobEvery: 500, blobSize: 64 << 10, blobChunk: 8 << 10,
		},
		staleBound: 2 * time.Second, convergeIn: 10 * time.Second, maxSigma: 50,
	}}
}

// --- the generic runner ---

// runScenario builds the topology, applies the workload while firing
// the nemesis schedule, then machine-checks the verdicts, prints them to
// out and writes the BENCH record to benchDir.  It returns the verdicts
// whenever the run got that far; the error is non-nil if the run could
// not complete or any verdict failed.
func runScenario(out io.Writer, sc scenario, seed int64, benchDir string) ([]invariant.Verdict, error) {
	fmt.Fprintf(out, "\n== nemesis %s: %s ==\n", sc.name, sc.title)
	fmt.Fprintf(out, "seed %d — rerun with -exp %s -seed %d to reproduce the exact fault schedule and key stream\n",
		seed, sc.name, seed)

	opts := sc.topo.opts
	opts.Seed = seed
	opts.Faults = dbdht.NewNetFaults(seed)
	env := &scnEnv{net: opts.Faults, rec: invariant.NewRecorder()}
	if sc.topo.durable {
		dir, err := os.MkdirTemp("", "dbdht-nemesis-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		env.disk = dbdht.NewDiskFaults(seed + 1)
		opts.Durability = dbdht.DurabilityConfig{
			Dir: dir, Fsync: dbdht.FsyncBatch, SnapshotInterval: -1,
			Faults: env.disk,
		}
	}
	c, err := dbdht.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	env.c = c
	for i := 0; i < sc.topo.snodes; i++ {
		w := 1.0
		if i < len(sc.topo.capacities) {
			w = sc.topo.capacities[i]
		}
		if _, err := c.AddSnodeWithCapacity(w); err != nil {
			return nil, err
		}
	}
	env.ids = c.Snodes()
	for i := 0; i < sc.topo.vnodes; i++ {
		if _, _, err := c.CreateVnode(env.ids[i%len(env.ids)]); err != nil {
			return nil, err
		}
	}

	// Print the deterministic nemesis schedule up front.
	for _, ev := range sc.nemesis {
		fmt.Fprintf(out, "  t=%-6v %s\n", ev.at, ev.desc)
	}

	var pacer *workload.Pacer
	if sc.load.rate > 0 {
		if pacer, err = workload.NewPacer(sc.load.rate); err != nil {
			return nil, err
		}
	}

	// Nemesis firing runs beside the workload; a fired event's error
	// aborts the run.
	start := time.Now()
	var healedAt time.Time
	nemErr := make(chan error, 1)
	nemDone := make(chan struct{})
	go func() {
		defer close(nemDone)
		for _, ev := range sc.nemesis {
			if wait := time.Until(start.Add(ev.at)); wait > 0 {
				time.Sleep(wait)
			}
			fmt.Fprintf(out, "  [%7.3fs] nemesis: %s\n", time.Since(start).Seconds(), ev.desc)
			if err := ev.do(env); err != nil {
				nemErr <- fmt.Errorf("nemesis %q: %w", ev.desc, err)
				return
			}
			if ev.heal {
				healedAt = time.Now()
			}
		}
	}()

	var wg sync.WaitGroup
	workerErrs := make(chan error, sc.load.workers)
	prints := make([]uint64, sc.load.workers)
	for w := 0; w < sc.load.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fpw, err := runWorker(c, env.rec, pacer, sc.load, seed, w)
			prints[w] = fpw
			if err != nil {
				workerErrs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	<-nemDone
	select {
	case err := <-nemErr:
		return nil, err
	case err := <-workerErrs:
		return nil, err
	default:
	}
	loadDur := time.Since(start)
	if healedAt.IsZero() {
		healedAt = time.Now() // no heal event: converge from workload end
	}

	// Key-stream fingerprint: XOR of the per-worker FNV sums over every
	// generated key.  Two runs with one seed must print the same value.
	var fingerprint uint64
	for _, p := range prints {
		fingerprint ^= p
	}
	fmt.Fprintf(out, "  key-stream fingerprint %016x (seed-stable)\n", fingerprint)

	// Invariant 3 first — it polls until the cluster goes quiet, and the
	// final read-back for invariant 1 wants the repaired state.
	conv := invariant.CheckConvergence(healedAt, sc.convergeIn, 100*time.Millisecond, 3, sc.maxSigma,
		func() (int64, float64) {
			repairs := c.StatsTotal().ReplRepairs
			sigma := 0.0
			if loads, err := c.LoadReport(); err == nil {
				sigma = 100 * dbdht.QuotaSigma(loads)
			}
			return repairs, sigma
		})

	acked := env.rec.AckedKeys()
	final := make(map[string]invariant.ReadBack, len(acked))
	for off := 0; off < len(acked); off += 4096 {
		end := min(off+4096, len(acked))
		res, err := c.MGet(acked[off:end])
		if err != nil {
			return nil, fmt.Errorf("final read-back: %w", err)
		}
		for _, r := range res {
			if !r.OK() {
				continue // an erroring read stays absent = counted lost
			}
			final[r.Key] = invariant.ReadBack{Value: r.Value, Found: r.Found}
		}
	}
	verdicts := []invariant.Verdict{
		env.rec.CheckNoAckedLoss(final),
		env.rec.CheckBoundedStaleness(sc.staleBound),
		conv,
	}
	for _, check := range sc.checks {
		verdicts = append(verdicts, check(env))
	}

	writes, ackedN, reads := env.rec.Counts()
	lat := c.Latencies()
	us := func(q float64) float64 { return 1e6 * lat.BatchRPC.Quantile(q) }
	st := c.StatsTotal()
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "writes\tacked\treads\tload [s]\trepl lagged\trepairs\tbatch-RPC p50 [µs]\tp95 [µs]\tp99 [µs]")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\t%d\t%d\t%.0f\t%.0f\t%.0f\n",
		writes, ackedN, reads, loadDur.Seconds(), st.ReplLagged, st.ReplRepairs,
		us(0.50), us(0.95), us(0.99))
	tw.Flush()
	pass := true
	for _, v := range verdicts {
		fmt.Fprintf(out, "  %s\n", v)
		if !v.Pass {
			pass = false
		}
	}

	if err := writeScenarioRecord(out, sc, seed, fingerprint, verdicts, pass, benchDir, map[string]float64{
		"writes": float64(writes), "acked": float64(ackedN), "reads": float64(reads),
		"load_s": loadDur.Seconds(), "repl_lagged": float64(st.ReplLagged),
		"repl_repairs":     float64(st.ReplRepairs),
		"batch_rpc_p50_us": us(0.50), "batch_rpc_p95_us": us(0.95), "batch_rpc_p99_us": us(0.99),
	}); err != nil {
		return verdicts, err
	}
	if !pass {
		return verdicts, fmt.Errorf("nemesis %s: invariant violation (see verdicts above)", sc.name)
	}
	return verdicts, nil
}

// runWorker drives one worker's op stream and returns the worker's
// key-stream fingerprint.  All randomness derives from (seed, w), so
// the stream — keys, kinds, values — is identical across runs.
func runWorker(c *dbdht.Cluster, rec *invariant.Recorder, pacer *workload.Pacer, load scnLoad, seed int64, w int) (uint64, error) {
	rng := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
	var keys workload.KeyGen
	var err error
	if load.zipf > 0 {
		keys, err = workload.NewZipf(rng, load.zipf, load.keys)
	} else {
		keys, err = workload.NewUniform(rng, load.keys)
	}
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewGen(rng, keys, load.ratios, load.valueSize, max(load.scanLen, 1))
	if err != nil {
		return 0, err
	}

	prefix := fmt.Sprintf("w%d-", w)
	fp := fnv.New64a()
	var puts []dbdht.KV
	putIdx := make(map[string]int) // key → index in puts
	var gets []string
	blobs := 0

	flushPuts := func() error {
		if len(puts) == 0 {
			return nil
		}
		batch := puts
		puts, putIdx = nil, make(map[string]int)
		start := time.Now()
		res, err := c.MPut(batch)
		if err != nil {
			// Whole-call failure: every write is unacknowledged but may
			// still have landed — record as indeterminate.
			for _, kv := range batch {
				rec.RecordWrite(kv.Key, kv.Value, start, false)
			}
			return nil
		}
		for _, r := range res {
			var val []byte
			for _, kv := range batch {
				if kv.Key == r.Key {
					val = kv.Value
					break
				}
			}
			rec.RecordWrite(r.Key, val, start, r.OK())
		}
		return nil
	}
	flushGets := func() error {
		if len(gets) == 0 {
			return nil
		}
		batch := gets
		gets = nil
		start := time.Now()
		res, err := c.MGet(batch)
		if err != nil {
			return nil // whole-call failure: nothing was observed
		}
		end := time.Now()
		for _, r := range res {
			if r.OK() {
				rec.RecordRead(r.Key, r.Value, r.Found, start, end)
			} else {
				rec.RecordFailedRead(r.Key, start)
			}
		}
		return nil
	}

	const batchSize = 32
	// A hot zipfian key can recur within one pending batch; the later
	// value supersedes the unsent earlier one, keeping every MPut free
	// of duplicate keys so "the last acknowledged value" stays exact.
	addPut := func(key string, val []byte) error {
		if j, ok := putIdx[key]; ok {
			puts[j].Value = val
			return nil
		}
		putIdx[key] = len(puts)
		puts = append(puts, dbdht.KV{Key: key, Value: val})
		if len(puts) >= batchSize {
			return flushPuts()
		}
		return nil
	}
	for i := 0; i < load.ops; i++ {
		if pacer != nil {
			pacer.Wait()
		}
		if load.blobEvery > 0 && i > 0 && i%load.blobEvery == 0 {
			// A chunked blob replaces this op: one MPut carrying every chunk.
			base := fmt.Sprintf("%sblob-%04d", prefix, blobs)
			blobs++
			ops, err := workload.ChunkOps(rng, base, load.blobSize, load.blobChunk)
			if err != nil {
				return 0, err
			}
			if err := flushPuts(); err != nil {
				return 0, err
			}
			for _, op := range ops {
				fp.Write([]byte(op.Key))
				if err := addPut(op.Key, op.Value); err != nil {
					return 0, err
				}
			}
			if err := flushPuts(); err != nil {
				return 0, err
			}
			continue
		}
		op := gen.Next()
		op.Key = prefix + op.Key
		fp.Write([]byte(op.Key))
		switch op.Kind {
		case workload.Put:
			if err := addPut(op.Key, op.Value); err != nil {
				return 0, err
			}
		case workload.Scan:
			gets = append(gets, scanKeys(op.Key, op.ScanLen)...)
			if len(gets) >= batchSize {
				if err := flushGets(); err != nil {
					return 0, err
				}
			}
		default: // Get (the scenarios use no deletes)
			gets = append(gets, op.Key)
			if len(gets) >= batchSize {
				if err := flushGets(); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := flushPuts(); err != nil {
		return 0, err
	}
	if err := flushGets(); err != nil {
		return 0, err
	}
	return fp.Sum64(), nil
}

// scanKeys expands a scan anchor into its n consecutive keys by
// incrementing the key's trailing decimal index (the generators all
// emit fixed-width numeric suffixes, so order is lexical).
func scanKeys(key string, n int) []string {
	i := len(key)
	for i > 0 && key[i-1] >= '0' && key[i-1] <= '9' {
		i--
	}
	if i == len(key) || n < 1 {
		return []string{key}
	}
	head, digits := key[:i], key[i:]
	idx, err := strconv.Atoi(digits)
	if err != nil {
		return []string{key}
	}
	out := make([]string, n)
	for j := range out {
		out[j] = fmt.Sprintf("%s%0*d", head, len(digits), idx+j)
	}
	return out
}

// scnRecord is the BENCH_nemesis_<name>.json shape.
type scnRecord struct {
	Scenario    string              `json:"scenario"`
	Title       string              `json:"title"`
	Date        string              `json:"date"`
	Go          string              `json:"go"`
	Seed        int64               `json:"seed"`
	Fingerprint string              `json:"key_stream_fingerprint"`
	Nemesis     []string            `json:"nemesis"`
	Metrics     map[string]float64  `json:"metrics"`
	Invariants  []invariant.Verdict `json:"invariants"`
	Pass        bool                `json:"pass"`
}

func writeScenarioRecord(out io.Writer, sc scenario, seed int64, fingerprint uint64, verdicts []invariant.Verdict, pass bool, dir string, metrics map[string]float64) error {
	var sched []string
	for _, ev := range sc.nemesis {
		sched = append(sched, fmt.Sprintf("t=%v %s", ev.at, ev.desc))
	}
	rec := scnRecord{
		Scenario: sc.name, Title: sc.title,
		Date: time.Now().Format("2006-01-02"),
		Go:   runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		Seed: seed, Fingerprint: fmt.Sprintf("%016x", fingerprint),
		Nemesis: sched, Metrics: metrics, Invariants: verdicts, Pass: pass,
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_nemesis_"+sc.name+".json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "  record written to %s\n", path)
	return nil
}
