// Command dhtd boots a dbdht cluster and serves its HTTP API: the
// key/value data plane (single-key and batched), the admin plane (snode
// and vnode membership, enrollment, capacity, balancing, snapshots) and
// introspection (status snapshot, Prometheus metrics).
//
// Usage:
//
//	dhtd -listen :8080 -snodes 8 -vnodes 32
//	dhtd -snodes 8 -vnodes 32 -replicas 2              # survive snode crashes
//	dhtd -data-dir /var/lib/dbdht -fsync batch          # survive restarts (WAL + snapshots)
//	dhtd -transport tcp -host 127.0.0.1                 # real TCP fabric
//	dhtd -capacity "1,1,4,4" -balance 5s                # heterogeneous + autonomous balancer
//	dhtd -pprof 127.0.0.1:6060                          # live profiling side port
//
// Re-running dhtd over the same -data-dir recovers the previous run's
// data: each snode replays its snapshot + WAL tail before serving, and
// the boot-time vnode enrollment is skipped (the recovered DHT already
// has its vnodes).  The full flag reference lives in docs/OPERATIONS.md.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain, then the cluster's snodes stop and their WALs are flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbdht"
	"dbdht/internal/server"
)

func main() {
	var (
		o dbdht.ClusterOptions
		d daemon
	)
	registerFlags(flag.CommandLine, &o, &d)
	flag.Parse()
	if err := run(o, d); err != nil {
		fmt.Fprintf(os.Stderr, "dhtd: %v\n", err)
		os.Exit(1)
	}
}

// daemon holds dhtd's own settings: those no ClusterOptions field takes.
type daemon struct {
	listen, fabric, host, pprofAddr string
	snodes, vnodes                  int
	drain                           time.Duration
	caps                            []float64
}

// registerFlags registers every dhtd flag on fs, a cluster setting
// straight into its field of o.  A flag whose default the cluster owns
// defaults to 0, which the cluster fills in; its help states the value.
func registerFlags(fs *flag.FlagSet, o *dbdht.ClusterOptions, d *daemon) {
	fs.StringVar(&d.listen, "listen", ":8080", "HTTP listen address")
	fs.IntVar(&d.snodes, "snodes", 4, "snodes to boot")
	fs.IntVar(&d.vnodes, "vnodes", 16, "vnodes to enroll at boot (round-robin)")
	fs.IntVar(&o.Pmin, "pmin", 32, "Pmin (power of two)")
	fs.IntVar(&o.Vmin, "vmin", 8, "Vmin (power of two)")
	fs.Int64Var(&o.Seed, "seed", 1, "seed")
	fs.IntVar(&o.Replicas, "replicas", 0, "copies per partition R (0 = 1, replication off; R>=2 loses no acknowledged write when an snode crashes)")
	fs.StringVar(&d.fabric, "transport", "mem", "cluster fabric: mem | tcp")
	fs.StringVar(&d.host, "host", "127.0.0.1", "bind host for the tcp fabric")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", 0, "internal RPC timeout (0 = 30s)")
	fs.DurationVar(&d.drain, "drain", 10*time.Second, "graceful shutdown drain window")
	fs.StringVar(&d.pprofAddr, "pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty = off)")
	fs.Func("capacity", "comma-separated per-snode capacity weights, cycled over the boot snodes (e.g. \"1,1,4,4\"; empty = all 1)", func(s string) (err error) {
		d.caps, err = parseCapacities(s)
		return err
	})
	fs.DurationVar(&o.Balance.Interval, "balance", 0, "autonomous balancer interval (0 = off; e.g. 5s)")
	fs.Float64Var(&o.Balance.QuotaDeviation, "balance-threshold", 0, "capacity-normalized per-snode quota deviation that triggers rebalancing (0 = 0.15)")
	fs.IntVar(&o.Balance.MaxMovesPerRound, "balance-moves", 0, "max enrollment adjustments per balancer round (0 = 2)")
	fs.StringVar(&o.Durability.Dir, "data-dir", "", "root directory for crash-durable snode storage (WAL + snapshots; empty = in-memory only)")
	o.Durability.Fsync = dbdht.FsyncBatch
	fs.Func("fsync", "WAL durability of acknowledged writes: off | batch (group-commit fsync; the default)", func(s string) (err error) {
		o.Durability.Fsync, err = dbdht.ParseFsyncMode(s)
		return err
	})
	fs.DurationVar(&o.Durability.SnapshotInterval, "snapshot-interval", 0, "background snapshot + WAL truncation interval (0 = 30s; requires -data-dir)")
	fs.DurationVar(&o.FailoverPingInterval, "failover-ping", 0, "liveness detector ping interval; a crashed snode is declared dead and its partitions promoted automatically (0 = off; e.g. 500ms; requires -replicas >= 2 to be useful)")
	fs.IntVar(&o.FailoverPingMisses, "failover-misses", 0, "consecutive missed pings before the liveness detector declares an snode crashed (0 = 3)")
	fs.Func("log-level", "structured log level: debug | info | warn | error | off (the default)", func(s string) (err error) {
		o.Logger, err = buildLogger(s)
		return err
	})
	fs.Float64Var(&o.TraceSample, "trace-sample", 0, "fraction of client operations to trace in [0, 1] (0 = off; adjustable live via PUT /v1/trace/sampling)")
	fs.IntVar(&o.TraceBuffer, "trace-buffer", 0, "spans retained per snode ring (0 = 4096)")
	fs.DurationVar(&o.SlowOpThreshold, "slow-op", 0, "log any client batch slower than this with its span breakdown (0 = off)")
}

// buildLogger maps -log-level to a stderr text logger; "off" (the
// default) keeps the cluster silent.
func buildLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "off", "":
		return nil, nil // cluster defaults to a discard logger
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown level %q (want debug, info, warn, error or off)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// parseCapacities parses the -capacity list of positive weights.
func parseCapacities(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("entry %q must be a positive finite number", p)
		}
		out = append(out, w)
	}
	return out, nil
}

// pprofHandler mounts the net/http/pprof endpoints on a fresh mux, so the
// profiling side port exposes nothing else (and the main API port exposes
// no profiling).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func run(o dbdht.ClusterOptions, d daemon) error {
	if d.snodes < 1 {
		return fmt.Errorf("-snodes must be >= 1, got %d", d.snodes)
	}
	if d.vnodes < 0 {
		return fmt.Errorf("-vnodes must be >= 0, got %d", d.vnodes)
	}
	var (
		c   *dbdht.Cluster
		err error
	)
	switch d.fabric {
	case "mem":
		c, err = dbdht.NewCluster(o)
	case "tcp":
		c, err = dbdht.NewClusterTCP(o, d.host)
	default:
		return fmt.Errorf("unknown transport %q (want mem or tcp)", d.fabric)
	}
	if err != nil {
		return err
	}
	defer c.Close()

	for i := 0; i < d.snodes; i++ {
		w := 1.0
		if len(d.caps) > 0 {
			w = d.caps[i%len(d.caps)]
		}
		if _, err := c.AddSnodeWithCapacity(w); err != nil {
			return err
		}
	}
	// A data dir may hold a previous run: the snodes then recovered their
	// vnodes from snapshot + WAL, and enrolling the boot quota on top
	// would double the DHT.  Recovery wins; -vnodes applies to fresh dirs.
	recovered := len(c.Snapshot().Vnodes)
	if recovered > 0 {
		log.Printf("dhtd: recovered %d vnodes from %s; skipping boot enrollment", recovered, o.Durability.Dir)
	} else {
		ids := c.Snodes()
		for i := 0; i < d.vnodes; i++ {
			if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
				return err
			}
		}
	}
	balanced := "off"
	if o.Balance.Interval > 0 {
		balanced = o.Balance.Interval.String()
	}
	durable := "off"
	if dur := o.Durability; dur.Dir != "" {
		durable = fmt.Sprintf("%s (fsync=%s)", dur.Dir, dur.Fsync)
	}
	log.Printf("dhtd: cluster up — %d snodes, %d vnodes (Pmin=%d, Vmin=%d, R=%d, fabric=%s, balance=%s, data=%s)",
		d.snodes, len(c.Snapshot().Vnodes), o.Pmin, o.Vmin, c.ReplicationFactor(), d.fabric, balanced, durable)

	if d.pprofAddr != "" {
		pprofSrv := &http.Server{Addr: d.pprofAddr, Handler: pprofHandler()}
		go func() {
			log.Printf("dhtd: serving pprof on http://%s/debug/pprof/", d.pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dhtd: pprof server: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	srv := &http.Server{
		Addr:         d.listen,
		Handler:      server.New(c).Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  90 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("dhtd: serving HTTP on %s", d.listen)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	log.Printf("dhtd: shutting down (draining up to %v)", d.drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
