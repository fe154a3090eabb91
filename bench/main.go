// Command bench is the repo's one benchmark: seeded end-to-end workloads
// against a dhtd subprocess (client → dhtd → TCP fabric → replica → WAL),
// per-layer figures measured from outside the program, and a comparer.
//
//	bench [-seed N] [-seconds S] [-out FILE] [-smoke]        every workload + layer stage + traced runs, one record
//	bench --workload W --seed N --seconds S --trace 0|1      one workload; last stdout line is the result object
//	bench compare OLD.json NEW.json                          verdict per workload × end-to-end metric
//	bench manifest                                           print BENCHMARK.json from the metric tables
//
// See README.md for the metric glossary and the method.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	// SIGINT/SIGTERM cancel the context; every stage then unwinds through
	// its deferred clean-up (child reaped, data dirs removed).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "manifest":
			return printManifest(stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wname   = fs.String("workload", "", "run only this workload and end with the result object (driver contract)")
		seed    = fs.Int64("seed", 1, "seed of every key stream")
		seconds = fs.Int("seconds", defaultSeconds, "timed window per workload, seconds")
		trace   = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		out     = fs.String("out", "", "where a ledger run writes its record (default: the run's results dir)")
		smoke   = fs.Bool("smoke", false, "small keyspace and op counts: checks the harness, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	e, cleanup, err := newEnv(ctx, *seed, time.Duration(*seconds)*time.Second, *smoke, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	if *wname != "" {
		w, ok := findWorkload(*wname)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *wname)
			return 2
		}
		if err := runContract(ctx, e, w, *trace == 1, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if err := runLedger(ctx, e, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// newEnv locates the repo, builds dhtd and creates the run's directories.
func newEnv(ctx context.Context, seed int64, window time.Duration, smoke bool, stderr io.Writer) (env, func(), error) {
	root, err := findRoot()
	if err != nil {
		return env{}, nil, err
	}
	run := fmt.Sprintf("%d-seed%d", time.Now().UnixNano(), seed)
	e := env{
		seed: seed, window: window, prof: fullProfile,
		outDir: filepath.Join(root, "bench", "results", run),
		tmpDir: filepath.Join(buildDir(root), "tmp", run),
		logf:   func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) },
	}
	if smoke {
		e.prof = smokeProfile
	}
	for _, dir := range []string{e.outDir, e.tmpDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return env{}, nil, err
		}
	}
	cleanup := func() { os.RemoveAll(e.tmpDir) }
	if e.dhtdBin, err = buildDhtd(ctx, root); err != nil {
		cleanup()
		return env{}, nil, err
	}
	return e, cleanup, nil
}

// contractResult is the object the driver reads from the last line.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload the way the driver asks: untraced it
// reports the end-to-end metrics every workload has; traced it reports
// every per-layer metric (and the end-to-end metrics that only some
// workloads have, 0 where they do not apply).
func runContract(ctx context.Context, e env, w workloadSpec, traced bool, stdout io.Writer) error {
	if traced {
		e.prof.Setups = 1 // setup_s is not among the traced run's metrics
	}
	rec, err := runE2E(ctx, e, w)
	if err != nil {
		return err
	}
	res := contractResult{
		Correct:   rec.EndToEnd["acked_lost"].Value == 0 && rec.badReads == 0,
		Attempted: rec.Requests, Failed: rec.Failed,
		Metrics: map[string]contractValue{},
	}
	if !traced {
		for _, s := range e2eSpecs {
			if s.Contract {
				res.Metrics[s.Name] = contractValue{rec.EndToEnd[s.Name].Value, s.Unit}
			}
		}
	} else {
		tr, err := runTraced(ctx, e, w)
		if err != nil {
			return err
		}
		stage, err := runLayerStage(e.prof, e.tmpDir)
		if err != nil {
			return err
		}
		for _, s := range e2eSpecs {
			if !s.Contract {
				res.Metrics[s.Name] = contractValue{rec.EndToEnd[s.Name].Value, s.Unit} // 0 where the workload has no such metric
			}
		}
		for _, s := range layerSpecs {
			v, ok := rec.PerLayer[s.Name]
			if !ok {
				if v, ok = tr[s.Name]; !ok {
					v, ok = stage[s.Name]
				}
			}
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", s.Name)
			}
			res.Metrics[s.Name] = contractValue{v.Value, s.Unit}
			rec.PerLayer[s.Name] = v
		}
	}
	printMetrics(stdout, w.Name, rec.EndToEnd)
	printMetrics(stdout, w.Name, rec.PerLayer)
	for _, msg := range rec.Errors {
		e.logf("%s: %s", w.Name, msg)
	}
	r := newRecord(e)
	r.Workloads[w.Name] = rec
	if err := writeRecord(filepath.Join(e.outDir, "record.json"), r); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runLedger is the full run: every workload untraced against a dhtd
// subprocess and traced in-process, the layer stage once, one record.
func runLedger(ctx context.Context, e env, out string, stdout io.Writer) error {
	r := newRecord(e)
	if out == "" {
		out = filepath.Join(e.outDir, "record.json")
	}
	var firstErr error
	for _, w := range workloads {
		e.logf("workload %s: %s", w.Name, w.Why)
		rec, err := runE2E(ctx, e, w)
		if err == nil {
			var tr metricSet
			if tr, err = runTraced(ctx, e, w); err == nil {
				for n, v := range tr {
					rec.PerLayer[n] = v
				}
			}
		}
		if rec != nil {
			r.Workloads[w.Name] = rec
			printMetrics(stdout, w.Name, rec.EndToEnd)
			printMetrics(stdout, w.Name, rec.PerLayer)
			for _, msg := range rec.Errors {
				e.logf("%s: %s", w.Name, msg)
			}
		}
		if err != nil {
			// A failed workload does not stop the others; the run as a
			// whole still fails.
			e.logf("workload %s failed: %v", w.Name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("workload %s: %w", w.Name, err)
			}
			if ctx.Err() != nil {
				break
			}
		}
	}
	if ctx.Err() == nil {
		stage, err := runLayerStage(e.prof, e.tmpDir)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("layer stage: %w", err)
		}
		r.Layers = stage
		printMetrics(stdout, "layers", stage)
	}
	printMoves(stdout)
	if err := writeRecord(out, r); err != nil {
		return err
	}
	e.logf("record written to %s", out)
	return firstErr
}

// printMoves prints, once per distinct text, which end-to-end metrics a
// group of layer metrics is expected to move.
func printMoves(w io.Writer) {
	fmt.Fprintln(w, "\nlayer metric → end-to-end metric it should move (written before measuring):")
	for _, s := range layerSpecs {
		fmt.Fprintf(w, "%-44s %-8s %s\n", s.Name, s.Source, s.Moves)
	}
}
