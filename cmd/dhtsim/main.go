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
//	dhtsim -exp trace           # observability: traced MPut with latency tails and a span dump
//	dhtsim -exp skew            # access-skew load imbalance, then the live balancer under hot-spot writes
//	dhtsim -exp crash           # live: R=2, one snode killed under load
//	dhtsim -exp restart         # live: 1 snode, R=1, fsync=batch, killed and restarted twice
//	dhtsim -exp failover        # live: durable R=2, a primary killed under load, replicas promote
//	dhtsim -exp partition-kill  # live: a primary killed while a partition isolates a replica
//	dhtsim -exp partition       # live: 2s symmetric partition + heal
//	dhtsim -exp slowlink        # live: 250ms±50ms delay + 5% drop between snode halves
//	dhtsim -exp slowdisk        # live: slow and failing fsyncs under durable writes
//	dhtsim -exp ycsb            # live: YCSB-B mix with scans and chunked blobs, open-loop paced
//	dhtsim -exp all             # everything above
//
// Flags -runs, -vnodes, -seed, -sample scale the effort; the defaults match
// the paper (100 runs × 1024 vnodes) with sparse sampling for readable
// tables.  -csv emits machine-readable output instead.
//
// Every live experiment is a scenario value (scenario.go) run by one
// runner: it prints the seed, the nemesis schedule and a key-stream
// fingerprint, machine-checks its verdicts, writes
// BENCH_nemesis_<name>.json to -bench-dir, and exits non-zero if any
// verdict fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
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
// but unlisted (or listed but unreachable).  Consecutive entries may
// share a name — skew's simulation, then its live scenario — and -exp
// runs each of them in order.
type experiment struct {
	name, desc string
	run        func(expCtx) error
}

var experiments = append([]experiment{
	{"fig4", "σ̄(Q_v) for Pmin=Vmin ∈ {8..128}", func(e expCtx) error { return fig4(e.o, e.print) }},
	{"fig5", "θ tradeoff, minimum at Vmin=32", func(e expCtx) error { return fig5(e.o) }},
	{"fig6", "σ̄(Q_v), Pmin=32, Vmin ∈ {8..512}", func(e expCtx) error { return fig6(e.o, e.print) }},
	{"fig7", "G_real vs G_ideal, Pmin=Vmin=32", func(e expCtx) error { return fig7(e.o, e.print) }},
	{"fig8", "σ̄(Q_g), Pmin=Vmin=32", func(e expCtx) error { return fig8(e.o, e.print) }},
	{"fig9", "local vs Consistent Hashing", func(e expCtx) error { return fig9(e.o, e.print) }},
	{"stability", "§4.1.1: plateau stable out to 8192 vnodes", func(e expCtx) error { return stability(e.o, e.print) }},
	{"ratio", "§4.1.1: ~30% σ̄ drop per doubling", func(e expCtx) error { return ratio(e.o) }},
	{"hetero", "weighted nodes: model vs weighted CH", func(e expCtx) error { return hetero(e.o) }},
	{"trace", "observability: traced MPut with latency tails", func(e expCtx) error { return traceDemo(e.o.Seed) }},
	{"skew", "§6: per-vnode load imbalance under access skew", func(e expCtx) error { return skew(e.o) }},
}, scenarioExperiments()...)

// scenarioExperiments registers every catalog scenario under its name.
func scenarioExperiments() []experiment {
	var exps []experiment
	for _, sc := range catalog() {
		exps = append(exps, experiment{sc.name, sc.title, func(e expCtx) error {
			_, err := runScenario(os.Stdout, sc, e.o.Seed, e.benchDir)
			return err
		}})
	}
	return exps
}

// experimentNames lists every registered -exp value, in order.
func experimentNames() []string {
	var names []string
	for _, e := range experiments {
		if len(names) == 0 || names[len(names)-1] != e.name {
			names = append(names, e.name)
		}
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
	return w.Flush()
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
