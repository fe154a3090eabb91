package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dbdht"
	"dbdht/client"
	"dbdht/internal/server"
)

// span is one timed stage of one request: bench-owned (client.call,
// server.handle) or read from the cluster's sampled spans.  Times are
// offsets from the traced run's epoch.
type span struct {
	ID, Parent uint64
	Name       string
	Snode      int
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.  Children may overlap each other and may stick out
// of the parent; only the union inside the parent counts.
func selfTime(s span, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, edge := time.Duration(0), s.Start
	for _, v := range iv {
		if v[1] <= edge {
			continue
		}
		covered += v[1] - max(v[0], edge)
		edge = v[1]
	}
	return s.dur() - covered
}

// budget splits one request's client-observed time between the layers
// along its blocking path.
type budget struct {
	Call        time.Duration // client.call, the whole
	Client      time.Duration // client.call − server.handle: JSON/base64, HTTP client, loopback
	Server      time.Duration // server.handle − op: HTTP server, JSON decode/encode
	Route       time.Duration // op − its batch.rpc children: hashing, grouping, merging
	RTT         time.Duration // slowest batch.rpc − its batch.serve: codec, fabric, queues
	Serve       time.Duration // that batch.serve − its children: bucket work under locks
	ReplAck     time.Duration // its batch.repl-ack spans: waiting for replicas
	WALWait     time.Duration // its batch.wal-wait spans: waiting for the group commit
	Unaccounted time.Duration // Call minus all of the above
}

// requestBudget walks one request's span tree.  A batch fans out to
// several snodes in parallel and waits for all of them, so below the op
// span it follows the sub-request that finished last: that one set the
// request's time.  ok is false when the tree has no op span.
func requestBudget(call, handle span, cluster []span) (b budget, ok bool) {
	kids := make(map[uint64][]span)
	var op span
	for _, s := range cluster {
		if s.Parent == 0 {
			op, ok = s, true
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	if !ok {
		return b, false
	}
	b.Call = call.dur()
	b.Client = selfTime(call, []span{handle})
	b.Server = selfTime(handle, []span{op})
	b.Route = selfTime(op, kids[op.ID])
	var rpc span
	for _, s := range kids[op.ID] {
		if s.End > rpc.End {
			rpc = s
		}
	}
	if rpc.ID != 0 {
		b.RTT = selfTime(rpc, kids[rpc.ID])
		for _, serve := range kids[rpc.ID] {
			b.Serve += selfTime(serve, kids[serve.ID])
			for _, s := range kids[serve.ID] {
				switch s.Name {
				case "batch.repl-ack":
					b.ReplAck += s.dur()
				case "batch.wal-wait":
					b.WALWait += s.dur()
				}
			}
		}
	}
	b.Unaccounted = b.Call - (b.Client + b.Server + b.Route + b.RTT + b.Serve + b.ReplAck + b.WALWait)
	return b, true
}

// reqIDKey carries a bench request id through the client package's
// context into the tagging transport.
type reqIDKey struct{}

const reqIDHeader = "X-Bench-Req"

// tagTransport copies the request id from the context into a header, so
// the server-side middleware can name the request it is timing.
type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(uint64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	return t.next.RoundTrip(r)
}

// spanLog collects the bench-owned spans in memory.
type spanLog struct {
	on    atomic.Bool
	next  atomic.Uint64
	epoch time.Time

	mu      sync.Mutex
	calls   map[uint64]span // guarded by mu
	handles map[uint64]span // guarded by mu
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), calls: map[uint64]span{}, handles: map[uint64]span{}}
}

// wrapCall is runClient's hook: it opens a client.call span around one
// client-package call.
func (l *spanLog) wrapCall(ctx context.Context) (context.Context, func()) {
	if !l.on.Load() {
		return ctx, func() {}
	}
	id := l.next.Add(1)
	start := time.Since(l.epoch)
	return context.WithValue(ctx, reqIDKey{}, id), func() {
		end := time.Since(l.epoch)
		l.mu.Lock()
		l.calls[id] = span{ID: id, Name: "client.call", Snode: -1, Start: start, End: end}
		l.mu.Unlock()
	}
}

// middleware opens a server.handle span around the API handler.
func (l *spanLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64)
		if err != nil || !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Since(l.epoch)
		next.ServeHTTP(w, r)
		end := time.Since(l.epoch)
		l.mu.Lock()
		l.handles[id] = span{ID: id, Name: "server.handle", Snode: -1, Start: start, End: end}
		l.mu.Unlock()
	})
}

// maxTraced bounds how many requests' cluster spans are read back:
// Cluster.Trace sweeps every ring once per trace.
const maxTraced = 1500

// traceRing sizes each snode's span ring so that a traced pass at full
// sampling evicts nothing (≈100 B per span).
const traceRing = 1 << 17

// tracedRequest is one joined request in the span dump.
type tracedRequest struct {
	Budget budget `json:"budget_ns"`
	Spans  []span `json:"spans"`
}

// runTraced runs the workload's traffic against an in-process cluster
// behind the real HTTP handler and client, once untraced and once with
// every request traced, and splits the traced requests' time by layer.
func runTraced(ctx context.Context, e env, w workloadSpec) (metricSet, error) {
	o := dbdht.ClusterOptions{Replicas: w.Replicas, TraceBuffer: traceRing}
	if w.Durable {
		dir := filepath.Join(e.tmpDir, w.Name+"-trace-data")
		defer os.RemoveAll(dir)
		o.Durability = dbdht.DurabilityConfig{Dir: dir, Fsync: dbdht.FsyncBatch, SnapshotInterval: 10 * time.Minute}
	}
	c, err := bootCluster(true, o, 4, 16) // dhtdBaseArgs' shape
	if err != nil {
		return nil, err
	}
	defer c.Close()
	spans := newSpanLog()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: spans.middleware(server.New(c).Handler())}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Close
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	if err := preload(ctx, url, e.prof.Keyspace); err != nil {
		return nil, err
	}

	// pass runs the closed-loop clients for d and returns keys/s.
	pass := func(d time.Duration) (float64, error) {
		epoch, stop, err := startClients(ctx, e, w, func() *client.Client {
			hc := &http.Client{Transport: tagTransport{next: &http.Transport{MaxIdleConnsPerHost: 1}}}
			return client.New(url, client.WithRequestTimeout(requestTimeout), client.WithHTTPClient(hc))
		}, spans.wrapCall)
		if err != nil {
			return 0, err
		}
		err = sleepCtx(ctx, d)
		logs := stop()
		elapsed := time.Since(epoch)
		st := summarize(logs, 0, elapsed+time.Hour)
		if st.failed > 0 {
			return 0, fmt.Errorf("traced run: %d of %d requests failed: %v", st.failed, st.requests, logs[0].errs)
		}
		return float64(st.keys) / elapsed.Seconds(), err
	}
	if _, err := pass(e.prof.Warmup); err != nil {
		return nil, err
	}
	untraced, err := pass(e.prof.TraceSecs)
	if err != nil {
		return nil, err
	}
	c.SetTraceSampling(1)
	spans.on.Store(true)
	traced, err := pass(e.prof.TraceSecs)
	spans.on.Store(false)
	c.SetTraceSampling(0)
	if err != nil {
		return nil, err
	}

	reqs, calls := joinTraces(c, spans)
	if len(reqs) < 20 {
		return nil, fmt.Errorf("traced run: only %d of %d requests could be joined to a cluster trace", len(reqs), calls)
	}
	if err := dumpSpans(filepath.Join(e.outDir, w.Name+"-spans.json"), reqs); err != nil {
		return nil, err
	}
	out := metricSet{}
	budgetMetrics(out, reqs)
	out.set("trace.overhead_frac", 1-traced/untraced, "ratio")
	return out, nil
}

// joinTraces pairs each bench request (client.call + server.handle,
// joined exactly by request id) with the cluster trace whose op span
// lies inside the handle span — the tightest fit when two concurrent
// requests both contain it — and reads that trace's spans back.  It also
// returns how many client calls were recorded.
func joinTraces(c *dbdht.Cluster, l *spanLog) ([]tracedRequest, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots := c.Traces()
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	ids := make([]uint64, 0, len(l.handles))
	for id := range l.handles {
		if _, ok := l.calls[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return l.handles[ids[i]].Start < l.handles[ids[j]].Start })
	step := max(1, len(ids)/maxTraced)
	used := make(map[uint64]bool)
	var out []tracedRequest
	for n := 0; n < len(ids); n += step {
		h := l.handles[ids[n]]
		best, bestDur := -1, time.Duration(-1)
		lo := sort.Search(len(roots), func(i int) bool { return roots[i].Start.Sub(l.epoch) >= h.Start })
		for i := lo; i < len(roots) && roots[i].Start.Sub(l.epoch) < h.End; i++ {
			r := roots[i]
			if !used[r.TraceID] && r.Start.Sub(l.epoch)+r.Duration <= h.End && r.Duration > bestDur {
				best, bestDur = i, r.Duration
			}
		}
		if best < 0 {
			continue
		}
		used[roots[best].TraceID] = true
		var cluster []span
		for _, s := range c.Trace(roots[best].TraceID) {
			start := s.Start.Sub(l.epoch)
			cluster = append(cluster, span{ID: s.SpanID, Parent: s.Parent, Name: s.Name, Snode: int(s.Snode), Start: start, End: start + s.Duration})
		}
		call := l.calls[ids[n]]
		b, ok := requestBudget(call, h, cluster)
		if !ok {
			continue
		}
		out = append(out, tracedRequest{Budget: b, Spans: append([]span{call, h}, cluster...)})
	}
	return out, len(l.calls)
}

func dumpSpans(path string, reqs []tracedRequest) error {
	buf, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// budgetMetrics reports each layer's self time as the median over the
// traced requests and as a share of the median client.call.
func budgetMetrics(out metricSet, reqs []tracedRequest) {
	median := func(of func(budget) float64) float64 {
		v := make([]float64, len(reqs))
		for i, r := range reqs {
			v[i] = of(r.Budget)
		}
		sort.Float64s(v)
		return v[len(v)/2]
	}
	call := median(func(b budget) float64 { return ms(b.Call) })
	out.set("trace.call_p50_ms", call, "ms")
	for _, layer := range []struct {
		name string
		of   func(budget) time.Duration
	}{
		{"client.self", func(b budget) time.Duration { return b.Client }},
		{"server.self", func(b budget) time.Duration { return b.Server }},
		{"cluster.route_self", func(b budget) time.Duration { return b.Route }},
		{"transport.rtt_self", func(b budget) time.Duration { return b.RTT }},
		{"cluster.serve_self", func(b budget) time.Duration { return b.Serve }},
		{"cluster.repl_ack_self", func(b budget) time.Duration { return b.ReplAck }},
		{"wal.wait_self", func(b budget) time.Duration { return b.WALWait }},
	} {
		p50 := median(func(b budget) float64 { return ms(layer.of(b)) })
		out.set(layer.name+"_p50_ms", p50, "ms")
		out.set(layer.name+"_share", p50/call, "ratio")
	}
	out.set("trace.unaccounted_share", median(func(b budget) float64 { return float64(b.Unaccounted) / float64(b.Call) }), "ratio")
	out["trace.call_p50_ms"] = value{Value: call, Unit: "ms", Samples: len(reqs)}
}
