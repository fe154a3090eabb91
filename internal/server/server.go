package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/api"
	"dbdht/internal/cluster"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/metrics"
	"dbdht/internal/wal"
)

// MaxValueBytes bounds a single value (and a whole batch body).
const MaxValueBytes = 8 << 20

// Server serves the HTTP API over one cluster handle.
type Server struct {
	c     *cluster.Cluster
	mux   *http.ServeMux
	start time.Time

	// Per-route request counters and latency histograms, exported at
	// /v1/metrics.
	reqs map[string]*atomic.Int64
	lats map[string]*metrics.Histogram

	// Cached per-snode load reports for the metrics scrape: LoadReport is
	// a cluster-wide RPC fan-out that can block up to RPCTimeout on a
	// wedged snode, which must never stall a Prometheus scrape (the local
	// counters matter most exactly when part of the cluster is sick).
	// Scrapes serve the cache and refresh it in the background.
	loadMu      sync.Mutex
	loads       []cluster.SnodeLoad // guarded by loadMu
	loadRefresh atomic.Bool
}

// New builds a Server around a running cluster.
func New(c *cluster.Cluster) *Server {
	s := &Server{
		c:     c,
		mux:   http.NewServeMux(),
		start: time.Now(),
		reqs:  make(map[string]*atomic.Int64),
		lats:  make(map[string]*metrics.Histogram),
	}
	s.route("PUT /v1/kv/{key...}", s.handlePut)
	s.route("GET /v1/kv/{key...}", s.handleGet)
	s.route("DELETE /v1/kv/{key...}", s.handleDelete)
	s.route("POST /v1/kv:batch", s.handleBatch)
	s.route("POST /v1/snodes", s.handleAddSnode)
	s.route("DELETE /v1/snodes/{id}", s.handleRemoveSnode)
	s.route("PUT /v1/snodes/{id}/enrollment", s.handleEnrollment)
	s.route("PUT /v1/snodes/{id}/capacity", s.handleCapacity)
	s.route("POST /v1/vnodes", s.handleCreateVnode)
	s.route("POST /v1/balance", s.handleBalanceNow)
	s.route("GET /v1/balance", s.handleBalanceStatus)
	s.route("POST /v1/snapshot", s.handleSnapshotNow)
	s.route("GET /v1/status", s.handleStatus)
	s.route("GET /v1/metrics", s.handleMetrics)
	s.route("GET /v1/trace", s.handleTraceList)
	s.route("GET /v1/trace/{id}", s.handleTraceGet)
	s.route("PUT /v1/trace/sampling", s.handleTraceSampling)
	return s
}

// route registers a handler with a request counter and latency histogram.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	ctr := &atomic.Int64{}
	lat := metrics.NewLatencyHistogram()
	s.reqs[pattern] = ctr
	s.lats[pattern] = lat
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		ctr.Add(1)
		start := time.Now()
		h(w, r)
		lat.ObserveSince(start)
	})
}

// Handler returns the API's http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// --- encoding helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Message: fmt.Sprintf(format, args...)})
}

// clusterErrCode maps a cluster-level error to an HTTP status.
func clusterErrCode(err error) int {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "not in cluster"):
		return http.StatusNotFound
	case strings.Contains(msg, "no snodes"), strings.Contains(msg, "no route"):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// readJSON decodes an admin request body into v, answering 413 or 400
// itself: the body is read as readBody reads it, an unknown field is
// refused, and so is anything but whitespace after the value.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := readBody(w, r, "request body")
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, end := dec.Token(); err == nil && end != io.EOF {
		err = errors.New("trailing data after the value")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func pathID(r *http.Request) (transport.NodeID, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("bad snode id %q", r.PathValue("id"))
	}
	return transport.NodeID(id), nil
}

// readBody reads a whole request body of at most MaxValueBytes into one
// buffer sized from Content-Length (the spare MinRead lets the read that
// meets EOF land without growing it).  On failure it answers 413 or 400
// itself, naming the body what.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	n := r.ContentLength
	if n < 0 || n > MaxValueBytes {
		n = 0 // unknown, or too long to accept: grow as bytes arrive
	}
	var buf bytes.Buffer
	buf.Grow(int(n) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxValueBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, MaxValueBytes)
	case err != nil:
		writeErr(w, http.StatusBadRequest, "reading %s: %v", what, err)
	default:
		return buf.Bytes(), true
	}
	return nil, false
}

// --- KV plane ---

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "empty key")
		return
	}
	value, ok := readBody(w, r, "value")
	if !ok {
		return
	}
	if err := s.c.Put(key, value); err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "empty key")
		return
	}
	value, found, err := s.c.Get(key)
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	if !found {
		writeErr(w, http.StatusNotFound, "key %q not found", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(value)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.PathValue("key") == "" {
		writeErr(w, http.StatusBadRequest, "empty key")
		return
	}
	found, err := s.c.Delete(r.PathValue("key"))
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.DeleteResponse{Found: found})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, "batch body")
	if !ok {
		return
	}
	var req api.BatchRequest
	if err := api.DecodeBatchRequest(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var (
		results []cluster.BatchResult
		err     error
	)
	switch req.Op {
	case "put":
		items := make([]cluster.KV, len(req.Items))
		for i, it := range req.Items {
			items[i] = cluster.KV{Key: it.Key, Value: it.Value}
		}
		results, err = s.c.MPut(items)
	case "get", "delete":
		keys := make([]string, len(req.Items))
		for i, it := range req.Items {
			keys[i] = it.Key
		}
		if req.Op == "get" {
			results, err = s.c.MGet(keys)
		} else {
			results, err = s.c.MDelete(keys)
		}
	default:
		writeErr(w, http.StatusBadRequest, "unknown batch op %q (want put, get or delete)", req.Op)
		return
	}
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	resp := api.BatchResponse{Results: make([]api.Result, len(results))}
	for i, res := range results {
		resp.Results[i] = api.Result{Key: res.Key, Found: res.Found, Value: res.Value, Error: res.Err}
	}
	bp := batchBufs.Get().(*[]byte)
	// The newline ends the value as writeJSON's json.Encoder ends it.
	b := append(api.AppendBatchResponse((*bp)[:0], &resp), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBatchBuf {
		*bp = b
		batchBufs.Put(bp)
	}
}

// batchBufs holds the encode buffers of batch replies for reuse, as
// encoding/json pools its own; a buffer over maxPooledBatchBuf is left to
// the collector rather than kept alive.
var batchBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBatchBuf = 1 << 20

// --- admin plane ---

func (s *Server) handleAddSnode(w http.ResponseWriter, r *http.Request) {
	var req api.AddSnodeRequest
	if r.ContentLength != 0 {
		if !readJSON(w, r, &req) {
			return
		}
	}
	if req.Capacity < 0 {
		writeErr(w, http.StatusBadRequest, "capacity must be > 0, got %v", req.Capacity)
		return
	}
	if req.Capacity == 0 {
		req.Capacity = 1
	}
	id, err := s.c.AddSnodeWithCapacity(req.Capacity)
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, api.AddSnodeResponse{ID: int(id)})
}

func (s *Server) handleCapacity(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req api.CapacityRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Weight <= 0 {
		writeErr(w, http.StatusBadRequest, "capacity weight must be > 0, got %v", req.Weight)
		return
	}
	if err := s.c.SetCapacity(id, req.Weight); err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.CapacityResponse{Capacity: req.Weight})
}

func loadStatuses(loads []cluster.SnodeLoad) []api.SnodeLoad {
	out := make([]api.SnodeLoad, len(loads))
	for i, l := range loads {
		out[i] = api.SnodeLoad{
			Snode: int(l.Snode), Capacity: l.Capacity, Vnodes: l.Vnodes,
			Keys: l.Keys, Quota: l.Quota,
			ReadsPS: l.Reads, WritesPS: l.Writes, BytesPS: l.Bytes,
		}
	}
	return out
}

func (s *Server) handleBalanceNow(w http.ResponseWriter, r *http.Request) {
	round, err := s.c.BalanceNow()
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.Balance{
		Sigma: round.Sigma, Moves: round.Moves, Loads: loadStatuses(round.Loads),
	})
}

func (s *Server) handleBalanceStatus(w http.ResponseWriter, r *http.Request) {
	st := s.c.BalancerStats()
	loads, err := s.c.LoadReport()
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.Balance{
		Sigma:  st.LastSigma,
		Moves:  int(st.Moves),
		Rounds: st.Rounds,
		Loads:  loadStatuses(loads),
	})
}

func (s *Server) handleRemoveSnode(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.c.RemoveSnode(id); err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleEnrollment(w http.ResponseWriter, r *http.Request) {
	id, err := pathID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req api.EnrollmentRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Target < 0 {
		writeErr(w, http.StatusBadRequest, "enrollment target must be >= 0, got %d", req.Target)
		return
	}
	hosted, err := s.c.SetEnrollment(id, req.Target)
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.EnrollmentResponse{Hosted: hosted})
}

func (s *Server) handleCreateVnode(w http.ResponseWriter, r *http.Request) {
	var req api.CreateVnodeRequest
	if r.ContentLength != 0 {
		if !readJSON(w, r, &req) {
			return
		}
	}
	at := transport.NodeID(req.Snode)
	if req.Snode == 0 {
		// Pick the snode currently hosting the fewest vnodes.
		hosted := make(map[transport.NodeID]int)
		snap := s.c.Snapshot()
		for _, v := range snap.Vnodes {
			hosted[v.Host]++
		}
		ids := s.c.Snodes()
		if len(ids) == 0 {
			writeErr(w, http.StatusServiceUnavailable, "cluster: no snodes")
			return
		}
		at = ids[0]
		for _, id := range ids[1:] {
			if hosted[id] < hosted[at] {
				at = id
			}
		}
	}
	name, group, err := s.c.CreateVnode(at)
	if err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CreateVnodeResponse{
		Vnode: name.String(), Group: group.String(), Snode: int(at),
	})
}

// handleSnapshotNow forces one snapshot + WAL-truncation pass on every
// snode — the operator hook before an upgrade or backup.  With
// durability off it is a successful no-op (nothing to snapshot).
func (s *Server) handleSnapshotNow(w http.ResponseWriter, r *http.Request) {
	if err := s.c.SnapshotNow(); err != nil {
		writeErr(w, clusterErrCode(err), "%v", err)
		return
	}
	st := s.c.WALStats()
	writeJSON(w, http.StatusOK, api.SnapshotResponse{SnapshotFiles: st.SnapWrites})
}

// --- tracing ---

func traceID(id uint64) string { return strconv.FormatUint(id, 16) }

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	summaries := s.c.Traces()
	out := make([]api.TraceSummary, 0, len(summaries))
	for _, ts := range summaries {
		out = append(out, api.TraceSummary{
			TraceID: traceID(ts.TraceID), Name: ts.Name,
			Start:      ts.Start.Format(time.RFC3339Nano),
			DurationMS: float64(ts.Duration) / float64(time.Millisecond),
			Outcome:    ts.Outcome, Spans: ts.Spans,
		})
	}
	writeJSON(w, http.StatusOK, api.TraceList{Sampling: s.c.TraceSampling(), Traces: out})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 16, 64)
	if err != nil || id == 0 {
		writeErr(w, http.StatusBadRequest, "bad trace id %q (want hex)", r.PathValue("id"))
		return
	}
	spans := s.c.Trace(id)
	if len(spans) == 0 {
		writeErr(w, http.StatusNotFound, "trace %s not found (unsampled or evicted)", r.PathValue("id"))
		return
	}
	resp := api.Trace{TraceID: traceID(id), Spans: make([]api.TraceSpan, len(spans))}
	for i, sp := range spans {
		out := api.TraceSpan{
			SpanID: traceID(sp.SpanID), Name: sp.Name, Snode: int(sp.Snode),
			Start:      sp.Start.Format(time.RFC3339Nano),
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
			Outcome:    sp.Outcome,
		}
		if sp.Parent != 0 {
			out.Parent = traceID(sp.Parent)
		}
		resp.Spans[i] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceSampling(w http.ResponseWriter, r *http.Request) {
	var req api.SamplingRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Rate < 0 || req.Rate > 1 {
		writeErr(w, http.StatusBadRequest, "sampling rate must be in [0, 1], got %v", req.Rate)
		return
	}
	s.c.SetTraceSampling(req.Rate)
	writeJSON(w, http.StatusOK, api.SamplingResponse{Sampling: s.c.TraceSampling()})
}

// --- introspection ---

// buildStatus builds the GET /v1/status document.  It also returns the
// aggregated WAL counters it sampled (all zeros with durability off), so
// the metrics scrape reuses one snode sweep for both the status block and
// the dbdht_wal_* families.
func (s *Server) buildStatus() (api.Status, wal.StatsSnapshot) {
	snap := s.c.Snapshot()
	perSnode := make(map[transport.NodeID]*api.SnodeStatus)
	for _, id := range s.c.Snodes() {
		perSnode[id] = &api.SnodeStatus{ID: int(id)}
	}
	groups := make(map[string]bool)
	resp := api.Status{
		Snodes:        []api.SnodeStatus{},
		Vnodes:        make([]api.VnodeStatus, 0, len(snap.Vnodes)),
		Replicas:      s.c.ReplicationFactor(),
		Stats:         s.c.StatsTotal(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	var wst wal.StatsSnapshot
	if on, mode := s.c.DurabilityEnabled(); on {
		wst = s.c.WALStats()
		resp.Durability = api.Durability{
			Enabled: true, Fsync: mode.String(),
			Appends: wst.Appends, Bytes: wst.Bytes, Fsyncs: wst.Fsyncs,
			SnapshotFiles: wst.SnapWrites,
		}
	}
	for _, v := range snap.Vnodes {
		groups[v.Group.String()] = true
		resp.Keys += v.Keys
		if ss, ok := perSnode[v.Host]; ok {
			ss.Vnodes++
			ss.Keys += v.Keys
		}
		resp.Vnodes = append(resp.Vnodes, api.VnodeStatus{
			Name: v.Name.String(), Snode: int(v.Host), Group: v.Group.String(),
			Level: int(v.Level), Partitions: len(v.Partitions), Keys: v.Keys,
		})
	}
	for _, id := range s.c.Snodes() {
		if ss, ok := perSnode[id]; ok {
			resp.Snodes = append(resp.Snodes, *ss)
		}
	}
	resp.Groups = len(groups)
	resp.SigmaQv = metrics.RelStdDev(snap.VnodeQuotas())
	return resp, wst
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, _ := s.buildStatus()
	writeJSON(w, http.StatusOK, st)
}

// cachedLoads serves the last collected load reports and kicks off one
// background refresh (deduplicated), so a scrape never blocks on the
// cluster-wide RPC fan-out.  The gauges lag by at most one scrape.
func (s *Server) cachedLoads() []cluster.SnodeLoad {
	if s.loadRefresh.CompareAndSwap(false, true) {
		go func() {
			defer s.loadRefresh.Store(false)
			loads, err := s.c.LoadReport()
			if err != nil {
				return
			}
			s.loadMu.Lock()
			s.loads = loads
			s.loadMu.Unlock()
		}()
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.loads
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, wst := s.buildStatus()
	counter := func(name, help string, v int64) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Type: metrics.TypeCounter,
			Samples: []metrics.Sample{{Value: float64(v)}},
		}
	}
	gauge := func(name, help string, v float64) metrics.Family {
		return metrics.Family{
			Name: name, Help: help, Type: metrics.TypeGauge,
			Samples: []metrics.Sample{{Value: v}},
		}
	}
	keysPerSnode := metrics.Family{
		Name: "dbdht_snode_keys", Help: "keys stored per snode", Type: metrics.TypeGauge,
	}
	vnodesPerSnode := metrics.Family{
		Name: "dbdht_snode_vnodes", Help: "vnodes hosted per snode", Type: metrics.TypeGauge,
	}
	for _, ss := range st.Snodes {
		labels := []metrics.Label{{Name: "snode", Value: strconv.Itoa(ss.ID)}}
		keysPerSnode.Samples = append(keysPerSnode.Samples,
			metrics.Sample{Labels: labels, Value: float64(ss.Keys)})
		vnodesPerSnode.Samples = append(vnodesPerSnode.Samples,
			metrics.Sample{Labels: labels, Value: float64(ss.Vnodes)})
	}
	capPerSnode := metrics.Family{
		Name: "dbdht_snode_capacity", Help: "capacity weight per snode", Type: metrics.TypeGauge,
	}
	quotaPerSnode := metrics.Family{
		Name: "dbdht_balance_snode_quota", Help: "fraction of the hash space owned per snode", Type: metrics.TypeGauge,
	}
	readsPerSnode := metrics.Family{
		Name: "dbdht_balance_snode_reads_per_s", Help: "decayed read rate per snode (EWMA)", Type: metrics.TypeGauge,
	}
	writesPerSnode := metrics.Family{
		Name: "dbdht_balance_snode_writes_per_s", Help: "decayed write rate per snode (EWMA)", Type: metrics.TypeGauge,
	}
	for _, l := range s.cachedLoads() {
		labels := []metrics.Label{{Name: "snode", Value: strconv.Itoa(int(l.Snode))}}
		capPerSnode.Samples = append(capPerSnode.Samples, metrics.Sample{Labels: labels, Value: l.Capacity})
		quotaPerSnode.Samples = append(quotaPerSnode.Samples, metrics.Sample{Labels: labels, Value: l.Quota})
		readsPerSnode.Samples = append(readsPerSnode.Samples, metrics.Sample{Labels: labels, Value: l.Reads})
		writesPerSnode.Samples = append(writesPerSnode.Samples, metrics.Sample{Labels: labels, Value: l.Writes})
	}
	bal := s.c.BalancerStats()
	httpReqs := metrics.Family{
		Name: "dbdht_http_requests_total", Help: "API requests served per route", Type: metrics.TypeCounter,
	}
	for route, ctr := range s.reqs {
		httpReqs.Samples = append(httpReqs.Samples, metrics.Sample{
			Labels: []metrics.Label{{Name: "route", Value: route}},
			Value:  float64(ctr.Load()),
		})
	}
	families := []metrics.Family{
		gauge("dbdht_snodes", "live snodes", float64(len(st.Snodes))),
		gauge("dbdht_vnodes", "enrolled vnodes", float64(len(st.Vnodes))),
		gauge("dbdht_groups", "balancement groups", float64(st.Groups)),
		gauge("dbdht_keys", "stored keys", float64(st.Keys)),
		gauge("dbdht_replication_factor", "configured copies per partition (R)", float64(st.Replicas)),
		gauge("dbdht_balance_sigma_qv", "relative stddev of vnode quotas (fraction)", st.SigmaQv),
		gauge("dbdht_balance_sigma_snode", "relative stddev of capacity-normalized per-snode quotas at the last balancer round", bal.LastSigma),
		counter("dbdht_balance_rounds_total", "autonomous balancer rounds run", bal.Rounds),
		counter("dbdht_balance_moves_total", "enrollment adjustments made by the balancer", bal.Moves),
		gauge("dbdht_uptime_seconds", "server uptime", st.UptimeSeconds),
		keysPerSnode,
		vnodesPerSnode,
		capPerSnode,
		quotaPerSnode,
		readsPerSnode,
		writesPerSnode,
		counter("dbdht_msgs_total", "protocol messages received", st.Stats.MsgsIn),
		counter("dbdht_forwards_total", "custody-chain redirects", st.Stats.Forwards),
		counter("dbdht_partitions_sent_total", "partitions migrated", st.Stats.PartitionsSent),
		counter("dbdht_keys_moved_total", "keys migrated with partitions", st.Stats.KeysMoved),
		counter("dbdht_split_alls_total", "scope-wide splits", st.Stats.SplitAlls),
		counter("dbdht_group_splits_total", "group splits", st.Stats.GroupSplits),
		counter("dbdht_joins_led_total", "vnode joins led", st.Stats.JoinsLed),
		counter("dbdht_leaves_led_total", "vnode leaves led", st.Stats.LeavesLed),
		counter("dbdht_data_ops_total", "data operations applied", st.Stats.DataOps),
		counter("dbdht_requeues_total", "operations requeued on frozen partitions", st.Stats.Requeues),
		counter("dbdht_batches_total", "batch requests handled", st.Stats.Batches),
		counter("dbdht_migration_chunks_total", "base copies shipped by partition moves, one per move", st.Stats.ChunksSent),
		counter("dbdht_migration_aborts_total", "live migrations aborted", st.Stats.MigAborts),
		counter("dbdht_freeze_timeouts_total", "writes failed on a frozen partition that never settled", st.Stats.FreezeTimeouts),
		counter("dbdht_repl_writes_total", "writes applied to replica buckets", st.Stats.ReplWrites),
		counter("dbdht_repl_repairs_total", "replica buckets repaired by anti-entropy", st.Stats.ReplRepairs),
		counter("dbdht_repl_lagged_total", "failed replica exchanges (replication lag)", st.Stats.ReplLagged),
		counter("dbdht_antientropy_probe_msgs_total", "anti-entropy probe messages sent (one per replica host per pass)", st.Stats.AEProbeMsgs),
		counter("dbdht_antientropy_keys_hashed_total", "keys re-hashed because a whole replica bucket arrived (0 while replicas stay in sync)", st.Stats.AEKeysHashed),
		counter("dbdht_failover_elections_total", "failover elections decided after primary crashes, one per surviving copy", st.Stats.Elections),
		counter("dbdht_promotions_total", "replica buckets promoted to primary by failover", st.Stats.Promotions),
		counter("dbdht_failover_detected_total", "snodes declared crashed by the liveness detector", st.Stats.FailoverDetects),
		httpReqs,
	}
	lat := s.c.Latencies()
	families = append(families,
		metrics.HistogramFamily("dbdht_batch_rpc_seconds",
			"client-side batch RPC round trip", lat.BatchRPC),
		metrics.HistogramFamily("dbdht_replica_ack_wait_seconds",
			"primary's wait for replica write acks", lat.ReplicaAckWait),
		metrics.HistogramFamily("dbdht_wal_durable_wait_seconds",
			"wait for the WAL group commit covering a write", lat.WALDurableWait),
		metrics.HistogramFamily("dbdht_wal_fsync_seconds",
			"the WAL's sync call alone (device time, without the group-commit queue)", lat.WALFsync),
		metrics.HistogramFamily("dbdht_migration_chunk_seconds",
			"one partition move's base copy, shipped and acknowledged", lat.MigrationChunk),
		metrics.HistogramFamily("dbdht_anti_entropy_pass_seconds",
			"one anti-entropy repair pass", lat.AntiEntropyPass),
	)
	httpLat := metrics.Family{
		Name: "dbdht_http_request_seconds", Help: "API request latency per route",
		Type: metrics.TypeHistogram,
	}
	for route, h := range s.lats {
		f := metrics.HistogramFamily(httpLat.Name, httpLat.Help, h.Snapshot(),
			metrics.Label{Name: "route", Value: route})
		httpLat.Samples = append(httpLat.Samples, f.Samples...)
	}
	families = append(families, httpLat)
	walEnabled := 0.0
	if st.Durability.Enabled {
		walEnabled = 1
	}
	families = append(families,
		gauge("dbdht_wal_enabled", "1 when crash-durable storage (WAL + snapshots) is on", walEnabled),
		counter("dbdht_wal_appends_total", "records appended to snode WALs", wst.Appends),
		counter("dbdht_wal_bytes_total", "payload bytes appended to snode WALs", wst.Bytes),
		counter("dbdht_wal_fsyncs_total", "fsync calls issued by snode WALs", wst.Fsyncs),
		counter("dbdht_wal_flushes_total", "WAL flush rounds (group commits)", wst.Flushes),
		counter("dbdht_wal_segment_rotations_total", "WAL segment files rotated", wst.Rotations),
		counter("dbdht_wal_segments_prepared_total", "WAL segment files created ahead of use (zero-filled unless fsync=off)", wst.Prepared),
		counter("dbdht_wal_segments_truncated_total", "WAL segments deleted behind snapshots", wst.Truncated),
		counter("dbdht_wal_torn_bytes_total", "garbage bytes cut from torn WAL tails at recovery (zero fill excluded)", wst.TornBytes),
		counter("dbdht_wal_records_replayed_total", "records replayed during recovery", wst.Replayed),
		counter("dbdht_wal_snapshot_files_total", "snapshot files written", wst.SnapWrites),
	)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = metrics.WritePrometheus(w, families)
}
