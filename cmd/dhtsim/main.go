// Command dhtsim regenerates the evaluation of Rufino et al. (IPDPS 2004):
// every figure of §4 is reproduced as a text table (or CSV) from the same
// simulations the paper describes — 1024 consecutive vnode creations,
// metrics sampled after each, averaged over 100 seeded runs.
//
// Usage:
//
//	dhtsim -exp fig4            # σ̄(Q_v) for Pmin=Vmin ∈ {8..128}
//	dhtsim -exp fig5            # θ tradeoff, minimum at Vmin=32
//	dhtsim -exp fig6            # σ̄(Q_v), Pmin=32, Vmin ∈ {8..512}
//	dhtsim -exp fig7            # G_real vs G_ideal, Pmin=Vmin=32
//	dhtsim -exp fig8            # σ̄(Q_g), Pmin=Vmin=32
//	dhtsim -exp fig9            # local vs Consistent Hashing
//	dhtsim -exp stability       # §4.1.1: plateau stable out to 8192 vnodes
//	dhtsim -exp ratio           # §4.1.1: ~30% σ̄ drop per doubling
//	dhtsim -exp hetero          # weighted nodes: model vs weighted CH
//	dhtsim -exp skew            # live balancer under a 10× hot-spot write skew
//	dhtsim -exp crash           # crash-and-recover: R=2 replication under a kill
//	dhtsim -exp restart         # durability: kill -9 one snode (R=1) and replay its WAL
//	dhtsim -exp failover        # self-healing: primary killed under sustained writes, replicas promote
//	dhtsim -exp trace           # observability: traced MPut with latency tails and a span dump
//	dhtsim -exp partition       # nemesis: 2s symmetric partition + heal, invariants machine-checked
//	dhtsim -exp slowlink        # nemesis: 250ms±50ms delay + 5% drop between snode halves
//	dhtsim -exp slowdisk        # nemesis: slow and failing fsyncs under durable writes
//	dhtsim -exp ycsb            # YCSB-B mix with scans and chunked blobs, open-loop paced
//	dhtsim -exp all             # everything above
//
// Flags -runs, -vnodes, -seed, -sample scale the effort; the defaults match
// the paper (100 runs × 1024 vnodes) with sparse sampling for readable
// tables.  -csv emits machine-readable output instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"dbdht"
	"dbdht/internal/cluster"
	"dbdht/internal/metrics"
	"dbdht/internal/sim"
)

// expCtx is what every experiment runs with: the simulation options,
// the chosen table printer, and where scenario BENCH records go.
type expCtx struct {
	o        sim.Options
	print    printFn
	benchDir string
}

// experiment is one -exp entry.  The registry below is the single
// source of truth for experiment names: dispatch, validation, and the
// usage text all iterate it, so a new experiment cannot be reachable
// but unlisted (or listed but unreachable).
type experiment struct {
	name, desc string
	run        func(expCtx) error
}

var experiments = []experiment{
	{"fig4", "σ̄(Q_v) for Pmin=Vmin ∈ {8..128}", func(e expCtx) error { return fig4(e.o, e.print) }},
	{"fig5", "θ tradeoff, minimum at Vmin=32", func(e expCtx) error { return fig5(e.o) }},
	{"fig6", "σ̄(Q_v), Pmin=32, Vmin ∈ {8..512}", func(e expCtx) error { return fig6(e.o, e.print) }},
	{"fig7", "G_real vs G_ideal, Pmin=Vmin=32", func(e expCtx) error { return fig7(e.o, e.print) }},
	{"fig8", "σ̄(Q_g), Pmin=Vmin=32", func(e expCtx) error { return fig8(e.o, e.print) }},
	{"fig9", "local vs Consistent Hashing", func(e expCtx) error { return fig9(e.o, e.print) }},
	{"stability", "§4.1.1: plateau stable out to 8192 vnodes", func(e expCtx) error { return stability(e.o, e.print) }},
	{"ratio", "§4.1.1: ~30% σ̄ drop per doubling", func(e expCtx) error { return ratio(e.o) }},
	{"hetero", "weighted nodes: model vs weighted CH", func(e expCtx) error { return hetero(e.o) }},
	{"skew", "live balancer under a 10× hot-spot write skew", func(e expCtx) error { return skew(e.o) }},
	{"crash", "crash-and-recover: R=2 replication under a kill", func(e expCtx) error { return crash(e.o) }},
	{"restart", "durability: kill -9 one snode (R=1) and replay its WAL", func(e expCtx) error { return restart(e.o) }},
	{"failover", "self-healing: primary killed under sustained writes", func(e expCtx) error { return failover(e.o) }},
	{"trace", "observability: traced MPut with latency tails", func(e expCtx) error { return traceDemo(e.o.Seed) }},
	{"partition", "nemesis: symmetric partition + heal under zipfian writes", func(e expCtx) error {
		return runScenario(partitionScenario(), e.o.Seed, e.benchDir)
	}},
	{"slowlink", "nemesis: slow + lossy link between snode halves", func(e expCtx) error {
		return runScenario(slowlinkScenario(), e.o.Seed, e.benchDir)
	}},
	{"slowdisk", "nemesis: slow and failing fsyncs under durable writes", func(e expCtx) error {
		return runScenario(slowdiskScenario(), e.o.Seed, e.benchDir)
	}},
	{"ycsb", "YCSB-B mix with scans and chunked blobs, open-loop paced", func(e expCtx) error {
		return runScenario(ycsbScenario(), e.o.Seed, e.benchDir)
	}},
}

// experimentNames lists every registered -exp value, in order.
func experimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames(), " ")+" all")
		runs     = flag.Int("runs", 100, "independent runs to average (paper: 100)")
		vnodes   = flag.Int("vnodes", 1024, "consecutive vnode creations per run (paper: 1024)")
		seed     = flag.Int64("seed", 1, "base seed; run i uses seed+i")
		sample   = flag.Int("sample", 64, "print every k-th step (metrics are still computed each step)")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		benchDir = flag.String("bench-dir", ".", "directory nemesis scenarios write their BENCH_*.json records to")
	)
	flag.Parse()
	if *exp != "all" {
		known := false
		for _, e := range experiments {
			if e.name == *exp {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "dhtsim: unknown experiment %q\nvalid experiments: %s all\n",
				*exp, strings.Join(experimentNames(), " "))
			os.Exit(2)
		}
	}
	printer := tablePrinter
	if *csv {
		printer = csvPrinter
	}
	ctx := expCtx{
		o:        sim.Options{Runs: *runs, Vnodes: *vnodes, Seed: *seed, SampleEvery: *sample},
		print:    printer,
		benchDir: *benchDir,
	}
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		if err := e.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "dhtsim: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}

// printFn renders a family of series sharing one x axis.
type printFn func(title, xlabel string, series []metrics.Series, percent bool)

func tablePrinter(title, xlabel string, series []metrics.Series, percent bool) {
	fmt.Printf("\n== %s ==\n", title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Label)
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for i, x := range series[0].X {
		row := []string{fmt.Sprintf("%d", x)}
		for _, s := range series {
			v := s.Y[i]
			if percent {
				row = append(row, fmt.Sprintf("%.2f", 100*v))
			} else {
				row = append(row, fmt.Sprintf("%.2f", v))
			}
		}
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
}

func csvPrinter(title, xlabel string, series []metrics.Series, percent bool) {
	fmt.Printf("# %s\n", title)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Label)
	}
	fmt.Println(strings.Join(header, ","))
	for i, x := range series[0].X {
		row := []string{fmt.Sprintf("%d", x)}
		for _, s := range series {
			v := s.Y[i]
			if percent {
				v *= 100
			}
			row = append(row, fmt.Sprintf("%.4f", v))
		}
		fmt.Println(strings.Join(row, ","))
	}
}

func fig4(o sim.Options, print printFn) error {
	var series []metrics.Series
	for _, pv := range []int{8, 16, 32, 64, 128} {
		s, err := sim.LocalQuality(pv, pv, o)
		if err != nil {
			return err
		}
		s.Label = fmt.Sprintf("(Pmin,Vmin)=(%d,%d)", pv, pv)
		series = append(series, s)
	}
	print("Figure 4: quality of the balancement σ̄(Qv) [%], Pmin=Vmin", "V", series, true)
	return nil
}

func fig5(o sim.Options) error {
	pts, err := sim.Theta([]int{8, 16, 32, 64, 128}, 0.5, o)
	if err != nil {
		return err
	}
	fmt.Printf("\n== Figure 5: θ tradeoff (α=β=0.5) ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Vmin\tσ̄(Qv) at V=end [%]\tθ")
	best := pts[0]
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%.2f\t%.3f\n", p.Vmin, 100*p.Sigma, p.Theta)
		if p.Theta < best.Theta {
			best = p
		}
	}
	w.Flush()
	fmt.Printf("θ minimizes at Vmin=%d (paper: 32)\n", best.Vmin)
	return nil
}

func fig6(o sim.Options, print printFn) error {
	var series []metrics.Series
	for _, vmin := range []int{8, 16, 32, 64, 128, 256, 512} {
		s, err := sim.LocalQuality(32, vmin, o)
		if err != nil {
			return err
		}
		s.Label = fmt.Sprintf("Vmin=%d", vmin)
		series = append(series, s)
	}
	print("Figure 6: σ̄(Qv) [%], Pmin=32", "V", series, true)
	return nil
}

func fig7(o sim.Options, print printFn) error {
	ge, err := sim.Groups(32, 32, o)
	if err != nil {
		return err
	}
	print("Figure 7: evolution of the number of groups, Pmin=Vmin=32", "V",
		[]metrics.Series{ge.Real, ge.Ideal}, false)
	return nil
}

func fig8(o sim.Options, print printFn) error {
	ge, err := sim.Groups(32, 32, o)
	if err != nil {
		return err
	}
	print("Figure 8: balancement between groups σ̄(Qg) [%], Pmin=Vmin=32", "V",
		[]metrics.Series{ge.Quality}, true)
	return nil
}

func fig9(o sim.Options, print printFn) error {
	var series []metrics.Series
	for _, k := range []int{32, 64} {
		s, err := sim.CHQuality(k, o)
		if err != nil {
			return err
		}
		s.Label = fmt.Sprintf("CH %d pts/node", k)
		series = append(series, s)
	}
	for _, vmin := range []int{32, 64, 128, 256, 512} {
		s, err := sim.LocalQuality(32, vmin, o)
		if err != nil {
			return err
		}
		s.Label = fmt.Sprintf("local Vmin=%d", vmin)
		series = append(series, s)
	}
	print("Figure 9: σ̄(Qn) [%], local approach (Pmin=32, 1 vnode/node) vs Consistent Hashing", "N", series, true)
	return nil
}

func stability(o sim.Options, print printFn) error {
	// §4.1.1: "this observation was confirmed by additional tests made with
	// 8192 vnodes."  Scale runs down to keep the default invocation quick.
	o.Vnodes = 8192
	if o.Runs > 20 {
		o.Runs = 20
	}
	if o.SampleEvery < 256 {
		o.SampleEvery = 256
	}
	s, err := sim.LocalQuality(32, 32, o)
	if err != nil {
		return err
	}
	s.Label = "(Pmin,Vmin)=(32,32)"
	print("Stability check (§4.1.1): σ̄(Qv) [%] out to 8192 vnodes", "V", []metrics.Series{s}, true)
	return nil
}

func ratio(o sim.Options) error {
	vmins := []int{8, 16, 32, 64, 128}
	plateaus, ratios, err := sim.PlateauRatio(vmins, 0.25, o)
	if err != nil {
		return err
	}
	fmt.Printf("\n== §4.1.1: σ̄ drop per (Pmin,Vmin) doubling (paper: \"nearly 30%%\") ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pmin=Vmin\tplateau σ̄ [%]\tratio to previous")
	for i, vm := range vmins {
		if i == 0 {
			fmt.Fprintf(w, "%d\t%.2f\t-\n", vm, 100*plateaus[i])
		} else {
			fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", vm, 100*plateaus[i], ratios[i-1])
		}
	}
	w.Flush()
	return nil
}

func skew(o sim.Options) error {
	// §5/§6 caveat made quantitative: the model balances quotas, which
	// balances *load* only under uniform access.
	runs := o.Runs
	if runs > 10 {
		runs = 10
	}
	uniform, zipf, err := sim.AccessSkew(32, 32, 256, 20000, 100000, 1.2,
		sim.Options{Runs: runs, Vnodes: 1, Seed: o.Seed})
	if err != nil {
		return err
	}
	fmt.Printf("\n== Access skew (future work §6): per-vnode load imbalance, 256 vnodes ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tσ̄(accesses) [%]\thottest vnode share [%]\tσ̄(Qv) [%]")
	fmt.Fprintf(w, "uniform\t%.1f\t%.2f\t%.2f\n", 100*uniform.SigmaAccess, 100*uniform.HottestShare, 100*uniform.SigmaQuota)
	fmt.Fprintf(w, "zipf s=1.2\t%.1f\t%.2f\t%.2f\n", 100*zipf.SigmaAccess, 100*zipf.HottestShare, 100*zipf.SigmaQuota)
	w.Flush()
	return skewLive(o.Seed)
}

// skewLive drives the autonomous balancer on a *live* cluster: four
// snodes with 1:4 heterogeneous capacities start equally enrolled, a
// 10× hot-spot write workload runs continuously, and balancer rounds
// migrate partitions (chunked, live) until the capacity-normalized
// per-snode quota deviation converges — under sustained writes, with
// zero freeze-timeout write failures and zero acknowledged-write loss.
func skewLive(seed int64) error {
	fmt.Printf("\n== Live balancer under a 10× hot-spot write skew, capacities 1:1:4:4 ==\n")
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{
		Pmin: 32, Vmin: 8, Seed: seed,
		RPCTimeout:   10 * time.Second,
		LoadInterval: 25 * time.Millisecond,
		Balance:      dbdht.BalanceConfig{QuotaDeviation: 0.2, MaxMovesPerRound: 2},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for _, w := range []float64{1, 1, 4, 4} {
		if _, err := c.AddSnodeWithCapacity(w); err != nil {
			return err
		}
	}
	ids := c.Snodes()
	for i := 0; i < 16; i++ { // equal enrollment: wrong for 1:4 capacities
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			return err
		}
	}
	const n = 20000
	items := make([]dbdht.KV, n)
	for i := range items {
		items[i] = dbdht.KV{Key: fmt.Sprintf("skew-key-%05d", i), Value: []byte(fmt.Sprintf("val-%05d", i))}
	}
	results, err := c.MPut(items)
	if err != nil {
		return err
	}
	acked := 0
	for _, r := range results {
		if r.OK() {
			acked++
		}
	}

	// Hot-spot writers: 90% of writes hammer the hottest 10% of a key
	// range disjoint from the preload, so the final readability check of
	// the preload keys genuinely detects acknowledged-write loss (a
	// rewritten key could mask a drop).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErrs, writesOK int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]dbdht.KV, 64)
				for j := range batch {
					idx := (r*64 + j*7) % (n / 10) // hot subset
					if j%10 == 0 {
						idx = (r*64 + j*13) % n // 10% of ops roam the full set
					}
					k := fmt.Sprintf("skew-hot-%05d", idx)
					batch[j] = dbdht.KV{Key: k, Value: []byte("h-" + k)}
				}
				res, err := c.MPut(batch)
				if err != nil {
					continue
				}
				for _, br := range res {
					if br.OK() {
						atomic.AddInt64(&writesOK, 1)
					} else {
						atomic.AddInt64(&writeErrs, 1)
					}
				}
				r++
			}
		}(g)
	}

	first, err := c.BalanceNow()
	if err != nil {
		return err
	}
	last := first
	rounds := 1
	for ; rounds < 40 && last.Sigma > 0.2; rounds++ {
		if last, err = c.BalanceNow(); err != nil {
			return err
		}
	}
	close(stop)
	wg.Wait()

	// Every acknowledged preload key must still be readable.
	keys := make([]string, n)
	for i := range items {
		keys[i] = items[i].Key
	}
	reads, err := c.MGet(keys)
	if err != nil {
		return err
	}
	readable := 0
	for _, r := range reads {
		if r.OK() && r.Found {
			readable++
		}
	}
	st := c.StatsTotal()
	bs := c.BalancerStats()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "σ̄ before [%]\tσ̄ after [%]\trounds\tmoves\tpartitions migrated\tchunks\tfreeze timeouts\twrites ok/failed\treadable [%]")
	fmt.Fprintf(w, "%.1f\t%.1f\t%d\t%d\t%d\t%d\t%d\t%d/%d\t%.2f\n",
		100*first.Sigma, 100*last.Sigma, rounds, bs.Moves,
		st.PartitionsSent, st.ChunksSent, st.FreezeTimeouts,
		writesOK, writeErrs, 100*float64(readable)/float64(acked))
	w.Flush()
	if st.FreezeTimeouts != 0 {
		return fmt.Errorf("skew: %d writes hit FreezeTimeout during live migration", st.FreezeTimeouts)
	}
	return nil
}

// crash runs the crash-and-recover scenario on a *live* cluster: with
// R=2 replication, load a key set, kill one snode abruptly, and measure
// how many acknowledged keys stay readable (failover reads), then wait
// for anti-entropy to re-establish R copies on the survivors and measure
// again.  With R=1 the same kill loses every key the dead snode owned —
// run both to see the difference.
func crash(o sim.Options) error {
	fmt.Printf("\n== Crash and recover: 8 snodes, 32 vnodes, 20000 keys, one snode killed ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "R\tacked keys\treadable after crash [%]\treadable after repair [%]\tfailover reads\trepairs")
	for _, r := range []int{1, 2} {
		if err := crashRun(w, r, o.Seed); err != nil {
			return err
		}
	}
	w.Flush()
	return nil
}

func crashRun(w io.Writer, r int, seed int64) error {
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{
		Pmin: 32, Vmin: 8, Seed: seed, Replicas: r,
		AntiEntropyInterval: 50 * time.Millisecond,
		RPCTimeout:          10 * time.Second,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.AddSnode(); err != nil {
			return err
		}
	}
	ids := c.Snodes()
	for i := 0; i < 32; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			return err
		}
	}
	const n = 20000
	keys := make([]string, n)
	items := make([]dbdht.KV, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("crash-key-%05d", i)
		items[i] = dbdht.KV{Key: keys[i], Value: []byte(fmt.Sprintf("val-%05d", i))}
	}
	results, err := c.MPut(items)
	if err != nil {
		return err
	}
	var acked []string
	for _, res := range results {
		if res.OK() {
			acked = append(acked, res.Key)
		}
	}
	if err := c.KillSnode(ids[3]); err != nil {
		return err
	}
	readable := func() (int, error) {
		res, err := c.MGet(acked)
		if err != nil {
			return 0, err
		}
		ok := 0
		for _, r := range res {
			if r.OK() && r.Found {
				ok++
			}
		}
		return ok, nil
	}
	afterCrash, err := readable()
	if err != nil {
		return err
	}
	// Let anti-entropy re-home the replica sets onto the survivors, then
	// measure again (with R=1 there is nothing to repair).
	if r > 1 {
		last := int64(-1)
		for settled := 0; settled < 3; {
			time.Sleep(100 * time.Millisecond)
			if reps := c.StatsTotal().ReplRepairs; reps == last {
				settled++
			} else {
				last = reps
				settled = 0
			}
		}
	}
	afterRepair, err := readable()
	if err != nil {
		return err
	}
	st := c.StatsTotal()
	fmt.Fprintf(w, "%d\t%d\t%.2f\t%.2f\t%d\t%d\n", r, len(acked),
		100*float64(afterCrash)/float64(len(acked)),
		100*float64(afterRepair)/float64(len(acked)),
		st.FailoverReads, st.ReplRepairs)
	return nil
}

// restart runs the durability acceptance scenario on a *live* cluster:
// a single snode (R=1 — no replication safety net) journaling to disk
// with group-commit fsync is loaded with keys, killed abruptly (its
// WAL's userspace buffer is abandoned, not flushed, simulating process
// death), and restarted from snapshot + log tail.  Zero acknowledged
// writes may be lost.  A second pass snapshots mid-run, so recovery
// stitches snapshot and WAL tail together.
func restart(o sim.Options) error {
	fmt.Printf("\n== Restart recovery: 1 snode, R=1, fsync=batch, kill -9 then restart ==\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tacked keys\treadable after restart [%]\twal records replayed\ttorn bytes cut")
	for _, snapshotted := range []bool{false, true} {
		if err := restartRun(w, o.Seed, snapshotted); err != nil {
			return err
		}
	}
	w.Flush()
	return nil
}

func restartRun(w io.Writer, seed int64, snapshotted bool) error {
	dir, err := os.MkdirTemp("", "dbdht-restart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{
		Pmin: 32, Vmin: 8, Seed: seed,
		RPCTimeout: 10 * time.Second,
		Durability: dbdht.DurabilityConfig{
			Dir: dir, Fsync: dbdht.FsyncBatch, SnapshotInterval: -1,
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	id, err := c.AddSnode()
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		if _, _, err := c.CreateVnode(id); err != nil {
			return err
		}
	}
	const n = 20000
	items := make([]dbdht.KV, n)
	for i := range items {
		items[i] = dbdht.KV{Key: fmt.Sprintf("restart-key-%05d", i), Value: []byte(fmt.Sprintf("val-%05d", i))}
	}
	half := items[:n/2]
	rest := items[n/2:]
	results, err := c.MPut(half)
	if err != nil {
		return err
	}
	var acked []string
	for _, res := range results {
		if res.OK() {
			acked = append(acked, res.Key)
		}
	}
	if snapshotted {
		// Snapshot between the two write waves: recovery must stitch the
		// snapshotted buckets and the post-snapshot WAL tail together.
		if err := c.SnapshotNow(); err != nil {
			return err
		}
	}
	if results, err = c.MPut(rest); err != nil {
		return err
	}
	for _, res := range results {
		if res.OK() {
			acked = append(acked, res.Key)
		}
	}

	if err := c.KillSnode(id); err != nil {
		return err
	}
	if err := c.RestartSnode(id); err != nil {
		return err
	}
	res, err := c.MGet(acked)
	if err != nil {
		return err
	}
	want := make(map[string]string, n)
	for _, it := range items {
		want[it.Key] = string(it.Value)
	}
	readable := 0
	for _, r := range res {
		// Found alone is not enough: recovery must bring back the VALUE
		// that was acknowledged, byte for byte.
		if r.OK() && r.Found && string(r.Value) == want[r.Key] {
			readable++
		}
	}
	wst := c.WALStats()
	phase := "wal only"
	if snapshotted {
		phase = "snapshot + wal tail"
	}
	fmt.Fprintf(w, "%s\t%d\t%.2f\t%d\t%d\n", phase, len(acked),
		100*float64(readable)/float64(len(acked)), wst.Replayed, wst.TornBytes)
	if readable != len(acked) {
		return fmt.Errorf("restart: lost %d of %d acknowledged writes", len(acked)-readable, len(acked))
	}
	return nil
}

// failover runs the self-healing acceptance scenario: a durable R=2
// cluster takes a sustained stream of batched writes while one primary
// snode is killed abruptly.  The surviving replicas must elect and
// promote new primaries automatically — no operator RestartSnode — so
// the write stream resumes within a bounded blackout window (< 2s) and
// every acknowledged write stays readable.
func failover(o sim.Options) error {
	fmt.Printf("\n== Automatic failover: 6 snodes, 24 vnodes, R=2, fsync=batch, primary killed under sustained MPut ==\n")
	dir, err := os.MkdirTemp("", "dbdht-failover-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{
		Pmin: 32, Vmin: 8, Seed: o.Seed, Replicas: 2,
		RPCTimeout:          5 * time.Second,
		AntiEntropyInterval: 25 * time.Millisecond,
		Durability: dbdht.DurabilityConfig{
			Dir: dir, Fsync: dbdht.FsyncBatch, SnapshotInterval: -1,
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < 6; i++ {
		if _, err := c.AddSnode(); err != nil {
			return err
		}
	}
	ids := c.Snodes()
	for i := 0; i < 24; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			return err
		}
	}

	const batch = 256
	var acked []string
	seq := 0
	// writeBatch streams one batch of fresh keys; okAll reports whether
	// every key in the batch was acknowledged.  A whole-call error is
	// returned so the caller can decide whether it is fatal (before the
	// kill) or part of the blackout (after it).
	writeBatch := func() (okAll bool, err error) {
		items := make([]dbdht.KV, batch)
		for i := range items {
			k := fmt.Sprintf("failover-key-%06d", seq)
			seq++
			items[i] = dbdht.KV{Key: k, Value: []byte("val-" + k)}
		}
		res, err := c.MPut(items)
		if err != nil {
			return false, err
		}
		okAll = true
		for _, r := range res {
			if r.OK() {
				acked = append(acked, r.Key)
			} else {
				okAll = false
			}
		}
		return okAll, nil
	}

	// Warm-up: the stream must be fully healthy before the kill.
	for i := 0; i < 10; i++ {
		ok, err := writeBatch()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("failover: warm-up batch had failures before the kill")
		}
	}

	victim := ids[1]
	killAt := time.Now()
	if err := c.KillSnode(victim); err != nil {
		return err
	}
	// Keep writing through the blackout; it ends at the first of 5
	// consecutive fully-acknowledged batches (a single clean batch can
	// slip between two partitions' promotions, so one success is not
	// proof of health).  256 keys spread over the hash space make a batch
	// that misses every partition of the dead snode (~1/6 of the space)
	// vanishingly unlikely, so sustained full acks mean the promoted
	// replicas are serving writes.
	blackout := time.Duration(-1)
	deadline := time.Now().Add(10 * time.Second)
	var firstOK time.Time
	streak := 0
	for time.Now().Before(deadline) {
		ok, err := writeBatch()
		if err != nil || !ok {
			streak = 0 // whole-call failure is part of the blackout
			continue
		}
		if streak == 0 {
			firstOK = time.Now()
		}
		streak++
		if streak == 5 {
			blackout = firstOK.Sub(killAt)
			break
		}
	}
	if blackout < 0 {
		return fmt.Errorf("failover: writes did not resume within 10s of the kill")
	}

	// Zero acknowledged-write loss: every acked key must read back.
	lost := 0
	for off := 0; off < len(acked); off += 4096 {
		end := off + 4096
		if end > len(acked) {
			end = len(acked)
		}
		res, err := c.MGet(acked[off:end])
		if err != nil {
			return err
		}
		for _, r := range res {
			if !r.OK() || !r.Found {
				lost++
			}
		}
	}

	st := c.StatsTotal()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "acked keys\tblackout [ms]\telections\tpromotions\tfailover reads\tlost acked keys")
	fmt.Fprintf(w, "%d\t%.0f\t%d\t%d\t%d\t%d\n", len(acked),
		float64(blackout.Microseconds())/1000, st.Elections, st.Promotions, st.FailoverReads, lost)
	w.Flush()
	if lost > 0 {
		return fmt.Errorf("failover: lost %d of %d acknowledged writes", lost, len(acked))
	}
	if st.Promotions == 0 {
		return fmt.Errorf("failover: no replica was promoted — the kill did not exercise failover")
	}
	if blackout > 2*time.Second {
		return fmt.Errorf("failover: write blackout %v exceeds the 2s acceptance window", blackout)
	}
	return nil
}

func hetero(o sim.Options) error {
	// 64 nodes with a 1/2/4 capacity mix (base-model feature (a)).
	weights := make([]int, 64)
	for i := range weights {
		weights[i] = 1 << (i % 3)
	}
	local, consistent, err := sim.HeteroQuality(weights, 32, 32, 32, o)
	if err != nil {
		return err
	}
	fmt.Printf("\n== Heterogeneous enrollment: σ̄ of weight-normalized node shares [%%] ==\n")
	fmt.Printf("local approach (1 vnode per weight unit): %.2f\n", 100*local)
	fmt.Printf("weighted Consistent Hashing (32 pts/weight): %.2f\n", 100*consistent)
	return nil
}

// traceDemo is the observability scenario: a 3-snode R=2 TCP cluster with
// 100% trace sampling serves a batched write workload; the output reports
// keys/s alongside the p50/p95/p99 batch-RPC latency from the new
// histograms, then dumps one MPut trace span by span so the whole path —
// client fan-out, primary serve, replica ack wait — is visible.
func traceDemo(seed int64) error {
	fmt.Printf("\n== Traced MPut: 3 snodes, R=2, TCP fabric, 100%% sampling ==\n")
	c, err := dbdht.NewClusterTCP(dbdht.ClusterOptions{
		Pmin: 32, Vmin: 8, Seed: seed, Replicas: 2,
		RPCTimeout: 10 * time.Second, AntiEntropyInterval: time.Hour,
		TraceSample: 1,
	}, "127.0.0.1")
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddSnode(); err != nil {
			return err
		}
	}
	ids := c.Snodes()
	for i := 0; i < 9; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			return err
		}
	}

	const batches, size = 50, 256
	items := make([]dbdht.KV, size)
	start := time.Now()
	for b := 0; b < batches; b++ {
		for j := range items {
			k := fmt.Sprintf("trace-key-%05d", (b*size+j)%4096)
			items[j] = dbdht.KV{Key: k, Value: []byte("v-" + k)}
		}
		results, err := c.MPut(items)
		if err != nil {
			return err
		}
		for _, r := range results {
			if !r.OK() {
				return fmt.Errorf("trace: MPut %q: %s", r.Key, r.Err)
			}
		}
	}
	elapsed := time.Since(start)

	lat := c.Latencies()
	us := func(q float64) float64 { return 1e6 * lat.BatchRPC.Quantile(q) }
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "batches\tkeys\tkeys/s\tbatch-RPC p50 [µs]\tp95 [µs]\tp99 [µs]")
	fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
		batches, batches*size, float64(batches*size)/elapsed.Seconds(),
		us(0.50), us(0.95), us(0.99))
	w.Flush()

	var root cluster.TraceSummary
	for _, ts := range c.Traces() {
		if ts.Name == "op.mput" {
			root = ts
			break
		}
	}
	if root.TraceID == 0 {
		return fmt.Errorf("trace: no op.mput trace recorded at 100%% sampling")
	}
	spans := c.Trace(root.TraceID)
	fmt.Printf("\ntrace %x — %s, %d spans, %v total:\n", root.TraceID, root.Name, len(spans), root.Duration)
	printSpanTree(spans, 0, 0)
	return nil
}

// printSpanTree renders a trace's spans as an indented tree under the
// given parent span id.
func printSpanTree(spans []cluster.Span, parent uint64, depth int) {
	for _, sp := range spans {
		if sp.Parent != parent {
			continue
		}
		fmt.Printf("  %s%-18s snode %-3d %10v  %s\n",
			strings.Repeat("  ", depth), sp.Name, int(sp.Snode), sp.Duration, sp.Outcome)
		printSpanTree(spans, sp.SpanID, depth+1)
	}
}
