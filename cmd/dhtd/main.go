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
		listen     = flag.String("listen", ":8080", "HTTP listen address")
		snodes     = flag.Int("snodes", 4, "snodes to boot")
		vnodes     = flag.Int("vnodes", 16, "vnodes to enroll at boot (round-robin)")
		pmin       = flag.Int("pmin", 32, "Pmin (power of two)")
		vmin       = flag.Int("vmin", 8, "Vmin (power of two)")
		seed       = flag.Int64("seed", 1, "seed")
		replicas   = flag.Int("replicas", 1, "copies per partition R (1 = replication off; R>=2 survives snode crashes for reads)")
		fabric     = flag.String("transport", "mem", "cluster fabric: mem | tcp")
		host       = flag.String("host", "127.0.0.1", "bind host for the tcp fabric")
		rpcTimeout = flag.Duration("rpc-timeout", 30*time.Second, "internal RPC timeout")
		drain      = flag.Duration("drain", 10*time.Second, "graceful shutdown drain window")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty = off)")
		capacity   = flag.String("capacity", "", "comma-separated per-snode capacity weights, cycled over the boot snodes (e.g. \"1,1,4,4\"; empty = all 1)")
		balance    = flag.Duration("balance", 0, "autonomous balancer interval (0 = off; e.g. 5s)")
		balThresh  = flag.Float64("balance-threshold", 0.15, "capacity-normalized per-snode quota deviation that triggers rebalancing")
		balMoves   = flag.Int("balance-moves", 2, "max enrollment adjustments per balancer round")
		dataDir    = flag.String("data-dir", "", "root directory for crash-durable snode storage (WAL + snapshots; empty = in-memory only)")
		fsync      = flag.String("fsync", "batch", "WAL durability of acknowledged writes: off | batch (group-commit fsync)")
		snapEvery  = flag.Duration("snapshot-interval", 30*time.Second, "background snapshot + WAL truncation interval (requires -data-dir)")
		failPing   = flag.Duration("failover-ping", 0, "liveness detector ping interval; a crashed snode is declared dead and its partitions promoted automatically (0 = off; e.g. 500ms; requires -replicas >= 2 to be useful)")
		failMiss   = flag.Int("failover-misses", 3, "consecutive missed pings before the liveness detector declares an snode crashed")
		logLevel   = flag.String("log-level", "off", "structured log level: debug | info | warn | error | off")
		traceRate  = flag.Float64("trace-sample", 0, "fraction of client operations to trace in [0, 1] (0 = off; adjustable live via PUT /v1/trace/sampling)")
		traceBuf   = flag.Int("trace-buffer", 0, "spans retained per snode ring (0 = default 4096)")
		slowOp     = flag.Duration("slow-op", 0, "log any client batch slower than this with its span breakdown (0 = off)")
	)
	flag.Parse()
	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhtd: %v\n", err)
		os.Exit(2)
	}
	caps, err := parseCapacities(*capacity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhtd: %v\n", err)
		os.Exit(2)
	}
	bal := dbdht.BalanceConfig{Interval: *balance, QuotaDeviation: *balThresh, MaxMovesPerRound: *balMoves}
	mode, err := dbdht.ParseFsyncMode(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dhtd: %v\n", err)
		os.Exit(2)
	}
	dur := dbdht.DurabilityConfig{Dir: *dataDir, Fsync: mode, SnapshotInterval: *snapEvery}
	obs := obsOptions{Sample: *traceRate, Buffer: *traceBuf, SlowOp: *slowOp, Logger: logger}
	if err := run(*listen, *snodes, *vnodes, *pmin, *vmin, *replicas, *seed, *fabric, *host, *rpcTimeout, *drain, *pprofAddr, caps, bal, dur, obs, *failPing, *failMiss); err != nil {
		fmt.Fprintf(os.Stderr, "dhtd: %v\n", err)
		os.Exit(1)
	}
}

// obsOptions bundles the observability flags.
type obsOptions struct {
	Sample float64
	Buffer int
	SlowOp time.Duration
	Logger *slog.Logger
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
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, error or off)", level)
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
			return nil, fmt.Errorf("-capacity entry %q must be a positive finite number", p)
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

func run(listen string, snodes, vnodes, pmin, vmin, replicas int, seed int64, fabric, host string, rpcTimeout, drain time.Duration, pprofAddr string, caps []float64, bal dbdht.BalanceConfig, dur dbdht.DurabilityConfig, obs obsOptions, failPing time.Duration, failMiss int) error {
	if snodes < 1 {
		return fmt.Errorf("-snodes must be >= 1, got %d", snodes)
	}
	if vnodes < 0 {
		return fmt.Errorf("-vnodes must be >= 0, got %d", vnodes)
	}
	if obs.Sample < 0 || obs.Sample > 1 {
		return fmt.Errorf("-trace-sample must be in [0, 1], got %v", obs.Sample)
	}
	opts := dbdht.ClusterOptions{
		Pmin: pmin, Vmin: vmin, Seed: seed, RPCTimeout: rpcTimeout,
		Replicas: replicas, Balance: bal, Durability: dur,
		FailoverPingInterval: failPing, FailoverPingMisses: failMiss,
		TraceSample: obs.Sample, TraceBuffer: obs.Buffer,
		SlowOpThreshold: obs.SlowOp, Logger: obs.Logger,
	}
	var (
		c   *dbdht.Cluster
		err error
	)
	switch fabric {
	case "mem":
		c, err = dbdht.NewCluster(opts)
	case "tcp":
		c, err = dbdht.NewClusterTCP(opts, host)
	default:
		return fmt.Errorf("unknown transport %q (want mem or tcp)", fabric)
	}
	if err != nil {
		return err
	}
	defer c.Close()

	for i := 0; i < snodes; i++ {
		w := 1.0
		if len(caps) > 0 {
			w = caps[i%len(caps)]
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
		log.Printf("dhtd: recovered %d vnodes from %s; skipping boot enrollment", recovered, dur.Dir)
	} else {
		ids := c.Snodes()
		for i := 0; i < vnodes; i++ {
			if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
				return err
			}
		}
	}
	balanced := "off"
	if bal.Interval > 0 {
		balanced = bal.Interval.String()
	}
	durable := "off"
	if dur.Dir != "" {
		durable = fmt.Sprintf("%s (fsync=%s)", dur.Dir, dur.Fsync)
	}
	log.Printf("dhtd: cluster up — %d snodes, %d vnodes (Pmin=%d, Vmin=%d, R=%d, fabric=%s, balance=%s, data=%s)",
		snodes, len(c.Snapshot().Vnodes), pmin, vmin, replicas, fabric, balanced, durable)

	if pprofAddr != "" {
		pprofSrv := &http.Server{Addr: pprofAddr, Handler: pprofHandler()}
		go func() {
			log.Printf("dhtd: serving pprof on http://%s/debug/pprof/", pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dhtd: pprof server: %v", err)
			}
		}()
		defer pprofSrv.Close()
	}

	srv := &http.Server{
		Addr:         listen,
		Handler:      server.New(c).Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
		IdleTimeout:  90 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("dhtd: serving HTTP on %s", listen)
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
	log.Printf("dhtd: shutting down (draining up to %v)", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
