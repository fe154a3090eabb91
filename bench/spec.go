package main

import (
	"time"

	"dbdht/internal/workload"
)

// workloadSpec is one named traffic mix and the server it runs against.
// Names are fixed: later issues cite them.
type workloadSpec struct {
	Name string
	Why  string
	// Server configuration beyond the shared base flags.
	Replicas int
	Durable  bool // -data-dir + -fsync batch
	// Traffic: fraction of requests that write, keys per request.
	WriteFrac float64
	Batch     int
	// KillRestart: SIGKILL dhtd after the window, restart it on the same
	// data dir and verify against the recovered state (recovery_s).
	KillRestart bool
	// Elastic: run the membership schedule beside the load.
	Elastic bool
	// LeaveUnderLoad also runs the schedule's RemoveSnode steps while the
	// clients are sending.  No workload sets it; it exists for the repro
	// of README "Known limits" (TestKnownLimitLeaveUnderLoad).
	LeaveUnderLoad bool
}

var workloads = []workloadSpec{
	{
		Name: "write_durable", Replicas: 2, Durable: true, WriteFrac: 1, Batch: 64, KillRestart: true,
		Why: "100% MPut batch 64 at R=2 fsync=batch, then SIGKILL+restart: replica fan-out and WAL group commit do most of the work",
	},
	{
		Name: "read_batch", Replicas: 2, Durable: true, WriteFrac: 0, Batch: 64,
		Why: "100% MGet batch 64 on the same server: bypasses WAL and replication, so HTTP/JSON, route cache, frame codec and read locks dominate",
	},
	{
		Name: "single_mixed", Replicas: 2, Durable: true, WriteFrac: workload.YCSBA().Update, Batch: 1,
		Why: "YCSB-A 50/50 single-key Put/Get: one key per HTTP request, frame and WAL record, reads beside writes on hot buckets",
	},
	{
		Name: "elastic_mixed", Replicas: 1, Durable: false, WriteFrac: 0.5, Batch: 64, Elastic: true,
		Why: "50/50 MPut/MGet at R=1 without WAL while 4 snodes join and 2 leave: migration, placement and route invalidation under load",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Base dhtd flags every workload shares (ISSUE 11): loopback TCP fabric,
// no injected delay.
var dhtdBaseArgs = []string{
	"-transport", "tcp", "-host", "127.0.0.1",
	"-snodes", "4", "-vnodes", "16", "-pmin", "32", "-vmin", "8", "-seed", "1",
	"-snapshot-interval", "10m",
}

const (
	clients        = 2 // closed loop; = nproc of the sandbox
	requestTimeout = 2 * time.Second
	adminTimeout   = 60 * time.Second
	// Elastic schedule: joins, enrollment per joined snode, leaves.
	elasticJoins  = 4
	elasticEnroll = 4
	elasticLeaves = 2
)

// profile sizes one run.  Window comes from -seconds; the rest scale the
// work done around it.
type profile struct {
	Keyspace   int
	Warmup     time.Duration
	Setups     int     // times set-up is repeated; setup_s is their median
	LayerScale float64 // multiplies the layer stage's fixed op counts
	TraceSecs  time.Duration
}

var (
	// fullProfile is what the contract command and the ledger run use.
	// The contract's time cap (92 runs in 3420 s) forced the issue's
	// 200 000-key keyspace and 30 s window down; see README "Sizes".
	fullProfile = profile{Keyspace: 100_000, Warmup: time.Second, Setups: 3, LayerScale: 1, TraceSecs: 4 * time.Second}
	// smokeProfile keeps `go test` short.
	smokeProfile = profile{Keyspace: 5_000, Warmup: 300 * time.Millisecond, Setups: 1, LayerScale: 0.1, TraceSecs: time.Second}
)

// e2eSpec defines one end-to-end metric: what a user of the service
// sees.  Bound is how far it may worsen before `bench compare` calls it a
// regression: a share of the old value, or an absolute amount when Abs.
// The bounds are ISSUE 11's, widened to twice the (max−min)/median seen
// over ten seeds on this sandbox where that is larger (README "Measured
// steadiness").
type e2eSpec struct {
	Name, Unit, Better string
	Bound              float64
	Abs                bool
	// Contract metrics exist and are non-zero on every workload and repeat
	// within their bound, so BENCHMARK.json lists them under end_to_end;
	// the rest go under per_layer there.
	Contract bool
	Def      string
}

var e2eSpecs = []e2eSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true, Def: "dhtd exec → ready → every key preloaded; median of the run's set-ups"},
	{Name: "throughput_keys_per_s", Unit: "keys/s", Better: "higher", Bound: 0.25, Contract: true, Def: "acknowledged keys / timed window"},
	{Name: "server_peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20, Contract: true, Def: "dhtd VmHWM at window end"},
	// Latency and CPU cost exist on every workload too, but this sandbox
	// has minute-long slow spells in which they worsen by 30–50 %; whenever
	// three of ten runs fall into one, their interquartile spread passes
	// the contract's widest bound (README "Measured steadiness").  With two
	// closed-loop clients latency is the inverse of throughput, which the
	// contract does gate.
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Def: "request-share-weighted mean of write_p50_ms and read_p50_ms"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.30, Def: "request-share-weighted mean of write_p99_ms and read_p99_ms"},
	{Name: "server_cpu_s_per_mkeys", Unit: "s", Better: "lower", Bound: 0.25, Def: "dhtd utime+stime over the window per 10⁶ acknowledged keys"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Def: "client-observed latency of successful write requests"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 0.30, Def: "same, p99 (or the highest percentile with ten samples beyond it)"},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Def: "client-observed latency of successful read requests"},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.30, Def: "same, p99"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0.001, Abs: true, Def: "requests failed, refused, timed out or with any per-item error ÷ attempted"},
	{Name: "acked_lost", Unit: "count", Better: "lower", Bound: 0, Abs: true, Def: "acknowledged keys missing, corrupt or older than acknowledged at read-back"},
	{Name: "wal_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.04, Def: "Δdbdht_wal_bytes_total ÷ acknowledged written key+value bytes"},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.30, Def: "SIGKILL → restart on the same dir → first status + read"},
	{Name: "rebalance_s", Unit: "s", Better: "lower", Bound: 0.35, Def: "summed wall time of the six membership steps"},
	{Name: "sigma_qv_pct", Unit: "%", Better: "lower", Bound: 1.0, Abs: true, Def: "σ̄(Qv) after the membership schedule"},
	{Name: "moved_keys_per_stored_key", Unit: "ratio", Better: "lower", Bound: 0.10, Def: "Δdbdht_keys_moved_total ÷ keys stored"},
}
