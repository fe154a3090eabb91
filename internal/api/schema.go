package api

// BatchRequest is the body of POST /v1/kv:batch.  Op selects the verb
// applied to every item; Value is base64 in JSON ([]byte), used by "put".
type BatchRequest struct {
	Op    string `json:"op"` // "put" | "get" | "delete"
	Items []Item `json:"items"`
}

// Item is one key (and, for puts, its value) of a batch.
type Item struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// BatchResponse answers a batch, results parallel to the request items.
type BatchResponse struct {
	Results []Result `json:"results"`
}

// Result is one key's outcome; Error is empty on success.
type Result struct {
	Key   string `json:"key"`
	Found bool   `json:"found"`
	Value []byte `json:"value,omitempty"`
	Error string `json:"error,omitempty"`
}

// OK reports whether the operation on this key succeeded.
func (r Result) OK() bool { return r.Error == "" }

// DeleteResponse answers DELETE /v1/kv/{key}.
type DeleteResponse struct {
	Found bool `json:"found"`
}

// Error is the body of every non-2xx reply.
type Error struct {
	Message string `json:"error"`
}

// AddSnodeRequest is the optional body of POST /v1/snodes, and
// AddSnodeResponse answers it with the new snode's id.
type AddSnodeRequest struct {
	Capacity float64 `json:"capacity"` // 0: unit capacity
}
type AddSnodeResponse struct {
	ID int `json:"id"`
}

// CapacityRequest is the body of PUT /v1/snodes/{id}/capacity, and
// CapacityResponse answers it with the weight now in force.
type CapacityRequest struct {
	Weight float64 `json:"weight"`
}
type CapacityResponse struct {
	Capacity float64 `json:"capacity"`
}

// EnrollmentRequest is the body of PUT /v1/snodes/{id}/enrollment, and
// EnrollmentResponse answers it with the vnode count after adjustment.
type EnrollmentRequest struct {
	Target int `json:"target"`
}
type EnrollmentResponse struct {
	Hosted int `json:"hosted"`
}

// CreateVnodeRequest is the optional body of POST /v1/vnodes, and
// CreateVnodeResponse answers it with the new vnode, its group and the
// snode that hosts it.
type CreateVnodeRequest struct {
	Snode int `json:"snode"` // 0: server picks the least-loaded snode
}
type CreateVnodeResponse struct {
	Vnode string `json:"vnode"`
	Group string `json:"group"`
	Snode int    `json:"snode"`
}

// SnapshotResponse answers POST /v1/snapshot with the snapshot files
// written so far, cluster-wide.
type SnapshotResponse struct {
	SnapshotFiles int64 `json:"snapshot_files"`
}

// Balance answers POST /v1/balance with the round's outcome and GET
// /v1/balance with the balancer's lifetime counters.
type Balance struct {
	Sigma  float64     `json:"sigma"`
	Moves  int         `json:"moves"`
	Rounds int64       `json:"rounds,omitempty"`
	Loads  []SnodeLoad `json:"loads,omitempty"`
}

// SnodeLoad is one snode's load report in a Balance.
type SnodeLoad struct {
	Snode    int     `json:"snode"`
	Capacity float64 `json:"capacity"`
	Vnodes   int     `json:"vnodes"`
	Keys     int     `json:"keys"`
	Quota    float64 `json:"quota"`
	ReadsPS  float64 `json:"reads_per_s"`
	WritesPS float64 `json:"writes_per_s"`
	BytesPS  float64 `json:"bytes_per_s"`
}

// Status is the GET /v1/status document: a cluster snapshot plus the
// aggregated runtime counters.
type Status struct {
	Snodes        []SnodeStatus `json:"snodes"`
	Vnodes        []VnodeStatus `json:"vnodes"`
	Groups        int           `json:"groups"`
	Keys          int           `json:"keys"`
	Replicas      int           `json:"replicas"` // configured copies per partition (R)
	SigmaQv       float64       `json:"sigma_qv"` // σ̄(Q_v), fraction
	Durability    Durability    `json:"durability"`
	Stats         Stats         `json:"stats"`
	UptimeSeconds float64       `json:"uptime_seconds"`
}

// SnodeStatus summarizes one live snode.
type SnodeStatus struct {
	ID     int `json:"id"`
	Vnodes int `json:"vnodes"`
	Keys   int `json:"keys"`
}

// VnodeStatus is one vnode's materialized state.
type VnodeStatus struct {
	Name       string `json:"name"`
	Snode      int    `json:"snode"`
	Group      string `json:"group"`
	Level      int    `json:"level"`
	Partitions int    `json:"partitions"`
	Keys       int    `json:"keys"`
}

// Durability reports the crash-durability layer's state.
type Durability struct {
	Enabled bool   `json:"enabled"`
	Fsync   string `json:"fsync,omitempty"` // off | batch
	// WAL counters aggregated over the snodes (live + departed).
	Appends       int64 `json:"wal_appends,omitempty"`
	Bytes         int64 `json:"wal_bytes,omitempty"`
	Fsyncs        int64 `json:"wal_fsyncs,omitempty"`
	SnapshotFiles int64 `json:"snapshot_files,omitempty"`
}

// Stats is the cluster's aggregated runtime counters, the stats object of
// a Status; its JSON keys are the field names.  internal/cluster counts
// into it directly (cluster.StatsSnapshot).  ChunksSent counts the base
// copies partition moves shipped, one per move (a move once streamed its
// base in chunks); those copies land like replica repairs, so their keys
// count in AEKeysHashed, but not in ReplRepairs or AEProbeMsgs.
type Stats struct {
	MsgsIn, Forwards, PartitionsSent, KeysMoved int64
	SplitAlls, GroupSplits, JoinsLed, LeavesLed int64
	DataOps, Requeues, Batches                  int64
	ReplWrites, ReplRepairs, ReplLagged         int64
	AEProbeMsgs, AEKeysHashed                   int64
	ChunksSent, MigAborts, FreezeTimeouts       int64
	Elections, Promotions                       int64
	// FailoverDetects counts snodes the cluster handle's liveness
	// detector declared dead; it is handle-level, set only in
	// Cluster.StatsTotal (zero in per-snode snapshots).
	FailoverDetects int64
}

// TraceList answers GET /v1/trace: the current sampling rate and the
// recently sampled traces.
type TraceList struct {
	Sampling float64        `json:"sampling"`
	Traces   []TraceSummary `json:"traces"`
}

// TraceSummary is one sampled trace in a TraceList.
type TraceSummary struct {
	TraceID    string  `json:"trace_id"` // hex
	Name       string  `json:"name"`
	Start      string  `json:"start"` // RFC 3339 with nanoseconds
	DurationMS float64 `json:"duration_ms"`
	Outcome    string  `json:"outcome"`
	Spans      int     `json:"spans"`
}

// Trace answers GET /v1/trace/{id}.
type Trace struct {
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// TraceSpan is one recorded stage of a Trace.
type TraceSpan struct {
	SpanID     string  `json:"span_id"`          // hex
	Parent     string  `json:"parent,omitempty"` // hex; absent for the root
	Name       string  `json:"name"`
	Snode      int     `json:"snode"` // -1 is the client handle
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Outcome    string  `json:"outcome"`
}

// SamplingRequest is the body of PUT /v1/trace/sampling, and
// SamplingResponse answers it with the rate now in force.
type SamplingRequest struct {
	Rate float64 `json:"rate"` // in [0, 1]
}
type SamplingResponse struct {
	Sampling float64 `json:"sampling"`
}
