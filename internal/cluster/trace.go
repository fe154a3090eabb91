package cluster

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/metrics"
)

// Request tracing.  A sampled operation carries a transport.TraceContext
// through every hop in the frame header (codec.go), and each stage
// records one Span into its snode's fixed-size ring buffer.  The cluster
// handle, which hosts every snode in-process on either medium, assembles
// a trace by sweeping the rings (Cluster.Trace), so collection needs no
// wire protocol of its own.
//
// Cost discipline: with sampling off (the default) the data plane pays
// exactly one atomic load per client operation (sampler.next) and zero
// allocations; every downstream instrumentation point is gated on
// TraceContext.Active(), a two-field check on a by-value struct.  The
// latency histograms (metrics.Histogram) are NOT gated — they observe
// per batch, not per key, and one lock-free histogram observation is
// noise against a batch's map work.

// Span is one recorded stage of a traced operation.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64 // span id of the parent stage; 0 for the root
	Name     string // stage name, e.g. "op.mput", "batch.serve", "repl.write"
	Snode    transport.NodeID
	Start    time.Time
	Duration time.Duration
	Outcome  string // "ok" or an error summary
}

// spanSeq hands out process-unique span ids; traceSalt decorrelates trace
// ids across processes and runs.
var (
	spanSeq   atomic.Uint64
	traceSalt = uint64(time.Now().UnixNano()) | 1
)

// mix64 is SplitMix64's finalizer: cheap, and every input bit affects
// every output bit — good enough for both trace ids and sampling coins.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newTraceID mints a non-zero trace id unique within (and overwhelmingly
// likely across) processes.
func newTraceID() uint64 {
	id := mix64(traceSalt + spanSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampler makes the head-sampling decision for new traces.  Off (rate 0,
// the default) costs one atomic load per operation and allocates nothing.
type sampler struct {
	bits atomic.Uint64 // float64 bits of the sampling probability; 0 = off
	seq  atomic.Uint64
}

// setRate sets the sampling probability, clamped to [0, 1].
func (sm *sampler) setRate(p float64) {
	if p <= 0 || math.IsNaN(p) {
		sm.bits.Store(0)
		return
	}
	if p > 1 {
		p = 1
	}
	sm.bits.Store(math.Float64bits(p))
}

// rate returns the current sampling probability.
func (sm *sampler) rate() float64 {
	bits := sm.bits.Load()
	if bits == 0 {
		return 0
	}
	return math.Float64frombits(bits)
}

// next returns a fresh root trace context, or the zero (inactive) context
// when this operation is not sampled.
func (sm *sampler) next() transport.TraceContext {
	bits := sm.bits.Load()
	if bits == 0 {
		return transport.TraceContext{}
	}
	p := math.Float64frombits(bits)
	if p < 1 {
		// A hashed counter as the coin: deterministic per-process sequence,
		// no RNG lock, 53 uniform bits.
		coin := float64(mix64(traceSalt^sm.seq.Add(1))>>11) / (1 << 53)
		if coin >= p {
			return transport.TraceContext{}
		}
	}
	return transport.TraceContext{TraceID: newTraceID(), Sampled: true}
}

// activeSpan is one in-flight span.  The zero value is inactive: begun
// under an unsampled context, every method is a no-op, so call sites need
// no branches of their own.
type activeSpan struct {
	ctx    transport.TraceContext // child context: SpanID is THIS span's id
	parent uint64
	name   string
	start  time.Time
}

// active reports whether finishing this span records anything.
func (a activeSpan) active() bool { return a.ctx.TraceID != 0 }

// beginSpan opens a child span under tr.  An inactive context returns the
// inactive span without reading the clock or allocating.
func beginSpan(tr transport.TraceContext, name string) activeSpan {
	if !tr.Active() {
		return activeSpan{}
	}
	return activeSpan{
		ctx:    transport.TraceContext{TraceID: tr.TraceID, SpanID: spanSeq.Add(1), Sampled: true},
		parent: tr.SpanID,
		name:   name,
		start:  time.Now(),
	}
}

// tracer is a fixed-size ring of finished spans.  Recording takes one
// short mutex hold (only sampled operations ever get here); the ring
// never grows, so a forgotten sampler at 1.0 costs bounded memory.
type tracer struct {
	mu  sync.Mutex
	buf []Span // guarded by mu
	n   uint64 // spans recorded over the tracer's lifetime; guarded by mu
}

func newTracer(size int) *tracer {
	return &tracer{buf: make([]Span, size)}
}

// finish records the span with the given outcome; empty outcome means ok.
func (t *tracer) finish(a activeSpan, snode transport.NodeID, outcome string) {
	if !a.active() {
		return
	}
	if outcome == "" {
		outcome = "ok"
	}
	sp := Span{
		TraceID: a.ctx.TraceID, SpanID: a.ctx.SpanID, Parent: a.parent,
		Name: a.name, Snode: snode,
		Start: a.start, Duration: time.Since(a.start), Outcome: outcome,
	}
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = sp
	t.n++
	t.mu.Unlock()
}

// finishErr is finish with the outcome taken from err (nil means ok).
func (t *tracer) finishErr(a activeSpan, snode transport.NodeID, err error) {
	if !a.active() {
		return
	}
	outcome := ""
	if err != nil {
		outcome = err.Error()
	}
	t.finish(a, snode, outcome)
}

// collect appends the ring's spans (oldest first) to out, keeping only
// those matching traceID (0 = all).
func (t *tracer) collect(out []Span, traceID uint64) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.buf))
	start := uint64(0)
	if t.n > size {
		start = t.n - size
	}
	for i := start; i < t.n; i++ {
		sp := t.buf[i%size]
		if traceID == 0 || sp.TraceID == traceID {
			out = append(out, sp)
		}
	}
	return out
}

// latencies groups one snode's always-on latency histograms.
type latencies struct {
	replAck  *metrics.Histogram // replica-ack wait per batch fan-out
	walWait  *metrics.Histogram // WAL append → durable wait
	walFsync *metrics.Histogram // the WAL's sync call alone (the log's own histogram once durability is open)
	migChunk *metrics.Histogram // one partition move's base-copy round-trip
	aePass   *metrics.Histogram // one full anti-entropy pass
}

func newLatencies() *latencies {
	return &latencies{
		replAck:  metrics.NewLatencyHistogram(),
		walWait:  metrics.NewLatencyHistogram(),
		walFsync: metrics.NewLatencyHistogram(),
		migChunk: metrics.NewLatencyHistogram(),
		aePass:   metrics.NewLatencyHistogram(),
	}
}

// LatencySnapshot aggregates the cluster's latency histograms: the
// handle's client-side batch RPC distribution plus every snode's
// server-side distributions (live snodes and departed ones folded in).
type LatencySnapshot struct {
	BatchRPC        metrics.HistogramSnapshot // client-observed batch sub-RPC round-trip
	ReplicaAckWait  metrics.HistogramSnapshot // primary's wait for replica write acks
	WALDurableWait  metrics.HistogramSnapshot // WAL append → durable (group-commit) wait
	WALFsync        metrics.HistogramSnapshot // the WAL's sync call alone, without the queueing in front of it
	MigrationChunk  metrics.HistogramSnapshot // one partition move's base-copy round-trip
	AntiEntropyPass metrics.HistogramSnapshot // one full anti-entropy pass
}

// fold accumulates one snode's histograms into the snapshot.
func (ls *LatencySnapshot) fold(lat *latencies) {
	ls.ReplicaAckWait.Merge(lat.replAck.Snapshot())
	ls.WALDurableWait.Merge(lat.walWait.Snapshot())
	ls.WALFsync.Merge(lat.walFsync.Snapshot())
	ls.MigrationChunk.Merge(lat.migChunk.Snapshot())
	ls.AntiEntropyPass.Merge(lat.aePass.Snapshot())
}

// merge accumulates another snapshot (a departing snode's totals).
func (ls *LatencySnapshot) merge(o LatencySnapshot) {
	ls.BatchRPC.Merge(o.BatchRPC)
	ls.ReplicaAckWait.Merge(o.ReplicaAckWait)
	ls.WALDurableWait.Merge(o.WALDurableWait)
	ls.WALFsync.Merge(o.WALFsync)
	ls.MigrationChunk.Merge(o.MigrationChunk)
	ls.AntiEntropyPass.Merge(o.AntiEntropyPass)
}

// --- cluster-handle collection API ---

// Latencies folds every live snode's histograms (plus departed snodes'
// retained totals) with the handle's own client-side distribution.
func (c *Cluster) Latencies() LatencySnapshot {
	c.retiredMu.Lock()
	out := c.retiredLat
	// The retained snapshot's slices are shared with the accumulator;
	// deep-copy via merge into a zero value so callers cannot alias it.
	var tot LatencySnapshot
	tot.merge(out)
	c.retiredMu.Unlock()
	tot.BatchRPC.Merge(c.batchRPC.Snapshot())
	for _, s := range c.liveSnodes() {
		tot.fold(s.lat)
	}
	return tot
}

// SetTraceSampling changes the head-sampling probability for new client
// operations at runtime (0 disables, 1 traces everything).  Snode-side
// background tracing (migrations) follows the same rate.
func (c *Cluster) SetTraceSampling(p float64) {
	c.sampler.setRate(p)
	for _, s := range c.liveSnodes() {
		s.sampler.setRate(p)
	}
}

// TraceSampling returns the current head-sampling probability.
func (c *Cluster) TraceSampling() float64 { return c.sampler.rate() }

// allTracers snapshots the handle's tracer plus every live snode's.
func (c *Cluster) allTracers() []*tracer {
	out := []*tracer{c.tracer}
	for _, s := range c.liveSnodes() {
		out = append(out, s.tracer)
	}
	return out
}

// Trace gathers every recorded span of one trace across the handle and
// all live snodes, ordered by start time.  Empty means the trace id is
// unknown, unsampled, or already evicted from the rings.
func (c *Cluster) Trace(id uint64) []Span {
	if id == 0 {
		return nil
	}
	var spans []Span
	for _, t := range c.allTracers() {
		spans = t.collect(spans, id)
	}
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return spans
}

// TraceSummary describes one recently sampled trace (its root span plus
// the number of spans currently held for it across the rings).
type TraceSummary struct {
	TraceID  uint64
	Name     string
	Start    time.Time
	Duration time.Duration
	Outcome  string
	Spans    int
}

// Traces lists the sampled traces whose root span is still in a ring,
// newest first.  Bounded by the ring sizes; an admin/debug surface, not a
// hot path.
func (c *Cluster) Traces() []TraceSummary {
	tracers := c.allTracers()
	var all []Span
	for _, t := range tracers {
		all = t.collect(all, 0)
	}
	counts := make(map[uint64]int, len(all))
	for _, sp := range all {
		counts[sp.TraceID]++
	}
	var out []TraceSummary
	for _, sp := range all {
		if sp.Parent != 0 {
			continue
		}
		out = append(out, TraceSummary{
			TraceID: sp.TraceID, Name: sp.Name,
			Start: sp.Start, Duration: sp.Duration, Outcome: sp.Outcome,
			Spans: counts[sp.TraceID],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}
