package main

// layerSpec defines one per-layer metric, named <layer>.<metric> after the
// repo's modules.  Source says how it is measured, always from outside
// the program:
//
//	scraped  deltas of dhtd's existing /v1/metrics series across the
//	         untraced subprocess run of the workload
//	stage    in-process timing of the layer's public functions at fixed
//	         op counts (same for every workload)
//	traced   in-process run of the workload's traffic with bench-owned
//	         client.call/server.handle spans joined to the cluster's
//	         sampled spans
//
// Moves was written before anything was measured: which end-to-end
// metric the layer metric should move, on which workload, and where it
// must stay flat.
type layerSpec struct {
	Name, Unit, Better string
	Source             string
	Moves              string
}

const (
	movesWAL       = "write_p50_ms, throughput_keys_per_s, wal_bytes_per_user_byte on write_durable and the writes of single_mixed; flat on read_batch and elastic_mixed (wal.appends_per_key = 0 there)"
	movesReplay    = "recovery_s on write_durable; flat everywhere else"
	movesRepl      = "write_p50_ms, throughput_keys_per_s on write_durable; an R-way write waits for the slowest replica, so repl_ack_wait p99 sets write_p99_ms; flat on read_batch and elastic_mixed (repl_writes_per_key = 0)"
	movesTransport = "server_cpu_s_per_mkeys first, then throughput_keys_per_s and read_p50_ms on read_batch (no fsync to hide behind); flat on the fsync-bound write_p50_ms of write_durable"
	movesFrontDoor = "read_p50_ms, server_cpu_s_per_mkeys, throughput_keys_per_s on single_mixed (one HTTP request per key), then read_batch; flat on the cluster.tcp_* stage numbers (no HTTP)"
	movesRoute     = "read_p99_ms, write_p99_ms, failed_frac on elastic_mixed (routes go stale); flat (≈0 forwards) on the three static workloads"
	movesMigrate   = "rebalance_s, moved_keys_per_stored_key, sigma_qv_pct and the latency tails during the schedule on elastic_mixed; flat (migrate.* = 0) on the three static workloads"
	movesBatch     = "latency_p50_ms and server_cpu_s_per_mkeys on the batched workloads (write_durable, read_batch, elastic_mixed); with 2 clients a faster layer saves at most its self-time share of p50 unless it frees the shared CPU"
	movesStagePut  = "throughput_keys_per_s and write_p50_ms on write_durable; flat on read_batch"
	movesStageGet  = "throughput_keys_per_s and read_p50_ms on read_batch; flat on write_durable"
	movesTrace     = "none: states how far the traced budget can be trusted"
)

var layerSpecs = []layerSpec{
	// Scraped during the untraced end-to-end run.
	{"server.http_p50_ms", "ms", "lower", "scraped", movesFrontDoor},
	{"server.http_p99_ms", "ms", "lower", "scraped", movesFrontDoor},
	{"client.overhead_p50_ms", "ms", "lower", "scraped", movesFrontDoor},
	{"cluster.batch_rpc_p50_ms", "ms", "lower", "scraped", movesBatch},
	{"cluster.batch_rpc_p99_ms", "ms", "lower", "scraped", movesBatch},
	{"cluster.batches_per_request", "ratio", "lower", "scraped", movesBatch},
	{"cluster.msgs_per_key", "ratio", "lower", "scraped", movesBatch},
	{"cluster.forwards_per_key", "ratio", "lower", "scraped", movesRoute},
	{"cluster.requeues_per_key", "ratio", "lower", "scraped", movesRoute},
	{"cluster.repl_writes_per_key", "ratio", "lower", "scraped", movesRepl},
	{"cluster.repl_ack_wait_p50_ms", "ms", "lower", "scraped", movesRepl},
	{"cluster.repl_ack_wait_p99_ms", "ms", "lower", "scraped", movesRepl},
	{"cluster.repl_lagged", "count", "lower", "scraped", movesRepl},
	{"wal.durable_wait_p50_ms", "ms", "lower", "scraped", movesWAL},
	{"wal.durable_wait_p99_ms", "ms", "lower", "scraped", movesWAL},
	{"wal.appends_per_key", "ratio", "lower", "scraped", movesWAL},
	{"wal.bytes_per_key", "B", "lower", "scraped", movesWAL},
	{"wal.fsyncs_per_request", "ratio", "lower", "scraped", movesWAL},
	{"wal.records_per_fsync", "ratio", "higher", "scraped", movesWAL + "; group commit raises it and lowers p50 together only when writers overlap"},
	{"migrate.chunks_per_kkeys_moved", "ratio", "lower", "scraped", movesMigrate},
	{"migrate.chunk_p50_ms", "ms", "lower", "scraped", movesMigrate},
	{"migrate.aborts", "count", "lower", "scraped", movesMigrate},
	{"migrate.freeze_timeouts", "count", "lower", "scraped", movesMigrate},

	// Layer stage.
	{"cluster.tcp_mput_keys_per_s.R1", "keys/s", "higher", "stage", movesStagePut},
	{"cluster.tcp_mput_keys_per_s.R2", "keys/s", "higher", "stage", movesStagePut},
	{"cluster.tcp_mput_keys_per_s.R3", "keys/s", "higher", "stage", movesStagePut},
	{"cluster.tcp_mget_keys_per_s.R1", "keys/s", "higher", "stage", movesStageGet},
	{"cluster.tcp_mget_keys_per_s.R2", "keys/s", "higher", "stage", movesStageGet},
	{"cluster.mem_mput_keys_per_s.R1", "keys/s", "higher", "stage", movesStagePut},
	{"cluster.mem_mget_keys_per_s.R1", "keys/s", "higher", "stage", movesStageGet},
	{"cluster.tcp_mput_keys_per_s.R1_fsync_off", "keys/s", "higher", "stage", movesWAL},
	{"cluster.tcp_mput_keys_per_s.R1_fsync_batch", "keys/s", "higher", "stage", movesWAL},
	{"cluster.repl_cost_ratio.R2", "ratio", "lower", "stage", movesRepl},
	{"cluster.repl_cost_ratio.R3", "ratio", "lower", "stage", movesRepl},
	{"wal.fsync_batch_cost_ratio", "ratio", "lower", "stage", movesWAL},
	{"transport.tcp_cost_ratio.mput", "ratio", "lower", "stage", movesTransport},
	{"transport.tcp_cost_ratio.mget", "ratio", "lower", "stage", movesTransport},
	{"cluster.allocs_per_key.mput_tcp_R1", "allocs", "lower", "stage", movesTransport},
	{"cluster.allocs_per_key.mget_tcp_R1", "allocs", "lower", "stage", movesTransport},
	{"transport.gob_frames.dataplane", "count", "lower", "stage", movesTransport + "; must be 0"},
	{"transport.frame_encode_ns", "ns", "lower", "stage", movesTransport},
	{"transport.frame_decode_ns", "ns", "lower", "stage", movesTransport},
	{"transport.frame_decode_allocs", "allocs", "lower", "stage", movesTransport},
	{"transport.pipe_tcp_env_per_s", "env/s", "higher", "stage", movesTransport},
	{"transport.pipe_mem_env_per_s", "env/s", "higher", "stage", movesTransport},
	{"wal.append_ns", "ns", "lower", "stage", movesWAL},
	{"wal.append_durable_us.fsync_batch", "us", "lower", "stage", movesWAL},
	{"wal.records_per_fsync.2writers", "ratio", "higher", "stage", movesWAL},
	{"wal.replay_mb_per_s", "MB/s", "higher", "stage", movesReplay},
	{"wal.bytes_per_payload_byte", "ratio", "lower", "stage", movesWAL},
	{"hashspace.hash_ns", "ns", "lower", "stage", movesTransport},
	{"hashspace.set_lookup_ns", "ns", "lower", "stage", movesMigrate},
	{"core.add_vnode_us", "us", "lower", "stage", movesMigrate},
	{"core.lookup_ns", "ns", "lower", "stage", movesMigrate},
	{"core.sigma_qv_pct.1024", "%", "lower", "stage", movesMigrate + "; guards balance quality against placement speed-ups"},

	// Traced run.
	{"trace.call_p50_ms", "ms", "lower", "traced", "the base of every *_share below"},
	{"client.self_p50_ms", "ms", "lower", "traced", movesFrontDoor},
	{"client.self_share", "ratio", "lower", "traced", movesFrontDoor},
	{"server.self_p50_ms", "ms", "lower", "traced", movesFrontDoor},
	{"server.self_share", "ratio", "lower", "traced", movesFrontDoor},
	{"cluster.route_self_p50_ms", "ms", "lower", "traced", movesRoute},
	{"cluster.route_self_share", "ratio", "lower", "traced", movesRoute},
	{"transport.rtt_self_p50_ms", "ms", "lower", "traced", movesTransport},
	{"transport.rtt_self_share", "ratio", "lower", "traced", movesTransport},
	{"cluster.serve_self_p50_ms", "ms", "lower", "traced", movesBatch},
	{"cluster.serve_self_share", "ratio", "lower", "traced", movesBatch},
	{"cluster.repl_ack_self_p50_ms", "ms", "lower", "traced", movesRepl},
	{"cluster.repl_ack_self_share", "ratio", "lower", "traced", movesRepl},
	{"wal.wait_self_p50_ms", "ms", "lower", "traced", movesWAL},
	{"wal.wait_self_share", "ratio", "lower", "traced", movesWAL},
	{"trace.unaccounted_share", "ratio", "lower", "traced", movesTrace},
	{"trace.overhead_frac", "ratio", "lower", "traced", movesTrace},
}
