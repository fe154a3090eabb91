package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbdht/client"
)

// sample is one completed (or failed) request as a client saw it.
type sample struct {
	kind opKind
	end  time.Duration // completion, since the load epoch
	lat  time.Duration
	keys int // keys acknowledged without error
	ok   bool
}

// ackRec is a writer's latest acknowledged write to one key.  seq 0
// means the writer never had a write to the key acknowledged.
type ackRec struct {
	seq        uint64
	start, end time.Duration // since the load epoch
}

// clientLog is everything one closed-loop client recorded.  Only that
// client's goroutine touches it until the load has stopped.
type clientLog struct {
	samples  []sample
	acked    []ackRec // by key index
	issued   uint64   // highest write seq handed out
	badReads int      // reads that came back missing or failing their own checksum
	errs     []string // first few failures, for the log
}

func (l *clientLog) noteErr(msg string) {
	if len(l.errs) < 5 {
		l.errs = append(l.errs, msg)
	}
}

// newLoadClient is one load client: its own keep-alive connection, the
// issue's 2 s request timeout, no write retries so failures are visible.
func newLoadClient(url string) *client.Client {
	return client.New(url, client.WithRequestTimeout(requestTimeout))
}

// startClients launches the workload's closed-loop clients, each with its
// own seeded stream and its own client from newClient.  The returned stop
// function ends the load, waits for the requests in flight and hands back
// every client's log; it may be called more than once.
func startClients(ctx context.Context, e env, w workloadSpec, newClient func() *client.Client, wrap func(context.Context) (context.Context, func())) (epoch time.Time, stop func() []*clientLog, err error) {
	var (
		halt atomic.Bool
		wg   sync.WaitGroup
		logs = make([]*clientLog, clients)
	)
	epoch = time.Now()
	stop = func() []*clientLog { halt.Store(true); wg.Wait(); return logs }
	for c := 0; c < clients; c++ {
		s, err := newOpStream(e.seed, w, c, e.prof.Keyspace)
		if err != nil {
			stop()
			return epoch, nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			logs[c] = runClient(ctx, c, newClient(), s, e.prof.Keyspace, epoch, &halt, wrap)
		}()
	}
	return epoch, stop, nil
}

// runClient issues requests from its stream back to back until stop is
// set, timing each one and checking every reply.  wrap, when not nil,
// brackets each client-package call (the traced run's client.call span).
func runClient(ctx context.Context, id int, cl *client.Client, s *opStream, keyspace int, epoch time.Time, stop *atomic.Bool, wrap func(context.Context) (context.Context, func())) *clientLog {
	l := &clientLog{acked: make([]ackRec, keyspace)}
	var (
		keys  []int
		names []string
		items []client.Item
	)
	for !stop.Load() && ctx.Err() == nil {
		var kind opKind
		kind, keys = s.next(keys)
		names = names[:0]
		for _, k := range keys {
			names = append(names, keyName(k))
		}
		firstSeq := l.issued + 1
		if kind.write() {
			items = items[:0]
			for i, k := range keys {
				items = append(items, client.Item{Key: names[i], Value: encodeValue(k, uint32(id), firstSeq+uint64(i))})
			}
			l.issued += uint64(len(keys))
		}
		cctx, done := ctx, func() {}
		if wrap != nil {
			cctx, done = wrap(ctx)
		}
		start := time.Since(epoch)
		var (
			results []client.Result
			value   []byte
			found   bool
			err     error
		)
		switch kind {
		case opMPut:
			results, err = cl.MPut(cctx, items)
		case opMGet:
			results, err = cl.MGet(cctx, names)
		case opPut:
			err = cl.Put(cctx, names[0], items[0].Value)
		case opGet:
			value, found, err = cl.Get(cctx, names[0])
			results = []client.Result{{Key: names[0], Found: found, Value: value}}
		}
		end := time.Since(epoch)
		done()
		smp := sample{kind: kind, end: end, lat: end - start, ok: err == nil}
		switch {
		case err != nil:
			l.noteErr(err.Error())
		case kind == opPut:
			smp.keys = 1
			l.acked[keys[0]] = ackRec{seq: firstSeq, start: start, end: end}
		case len(results) != len(keys):
			smp.ok = false
			l.noteErr(fmt.Sprintf("%d results for %d keys", len(results), len(keys)))
		default:
			for i, r := range results {
				if !r.OK() {
					smp.ok = false
					l.noteErr(r.Key + ": " + r.Error)
					continue
				}
				if kind.write() {
					l.acked[keys[i]] = ackRec{seq: firstSeq + uint64(i), start: start, end: end}
				} else if _, _, derr := decodeFound(keys[i], r); derr != nil {
					smp.ok = false
					l.badReads++
					l.noteErr(derr.Error())
					continue
				}
				smp.keys++
			}
		}
		l.samples = append(l.samples, smp)
	}
	return l
}

// decodeFound checks one read result: every key is preloaded, so absent
// is as wrong as corrupt.
func decodeFound(key int, r client.Result) (writer uint32, seq uint64, err error) {
	if !r.Found {
		return 0, 0, fmt.Errorf("%s not found", r.Key)
	}
	return decodeValue(key, r.Value)
}

// sweepBatch is the request size of the untimed full-keyspace passes
// (preload and read-back).
const sweepBatch = 256

// sweep splits [0, keyspace) between as many connections as the load has
// clients and calls fn on consecutive key-index ranges; the first error
// stops that connection.
func sweep(url string, keyspace int, fn func(cl *client.Client, lo, hi int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	per := (keyspace + clients - 1) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(url, client.WithRequestTimeout(adminTimeout))
			for lo := c * per; lo < min((c+1)*per, keyspace); lo += sweepBatch {
				if err := fn(cl, lo, min(lo+sweepBatch, (c+1)*per, keyspace)); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload stores every key once.  Any failure fails the set-up.
func preload(ctx context.Context, url string, keyspace int) error {
	return sweep(url, keyspace, func(cl *client.Client, lo, hi int) error {
		items := make([]client.Item, 0, hi-lo)
		for k := lo; k < hi; k++ {
			items = append(items, client.Item{Key: keyName(k), Value: encodeValue(k, preloadID, 0)})
		}
		results, err := cl.MPut(ctx, items)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, r := range results {
			if !r.OK() {
				return fmt.Errorf("preload %s: %s", r.Key, r.Error)
			}
		}
		return nil
	})
}

// readBack fetches every key and checks it against what the writers had
// acknowledged: a key is lost when it is missing, corrupt, older than a
// write its own writer had acknowledged, or a write that finished before
// another writer's acknowledged write to the same key began.  Returns
// the number of lost keys and the first few reasons.
func readBack(ctx context.Context, url string, keyspace int, logs []*clientLog) (lost int, reasons []string, err error) {
	var mu sync.Mutex
	note := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lost++
		if len(reasons) < 5 {
			reasons = append(reasons, fmt.Sprintf(format, args...))
		}
	}
	err = sweep(url, keyspace, func(cl *client.Client, lo, hi int) error {
		names := make([]string, 0, hi-lo)
		for k := lo; k < hi; k++ {
			names = append(names, keyName(k))
		}
		var results []client.Result
		var err error
		for try := 0; try < 3; try++ { // verification, not measurement: a retry hides nothing
			if results, err = cl.MGet(ctx, names); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		if len(results) != len(names) {
			return fmt.Errorf("read-back: %d results for %d keys", len(results), len(names))
		}
		for i, r := range results {
			k := lo + i
			if !r.OK() {
				note("%s: %s", r.Key, r.Error)
				continue
			}
			writer, seq, derr := decodeFound(k, r)
			if derr != nil {
				note("%v", derr)
				continue
			}
			if why := staleReason(k, writer, seq, logs); why != "" {
				note("%s: %s", r.Key, why)
			}
		}
		return nil
	})
	return lost, reasons, err
}

// staleReason says why the surviving value (writer, seq) of key k
// contradicts the acknowledgements, or "" when it is allowed.
func staleReason(k int, writer uint32, seq uint64, logs []*clientLog) string {
	if writer == preloadID {
		for w, l := range logs {
			if l.acked[k].seq != 0 {
				return fmt.Sprintf("holds the preloaded value but writer %d was acknowledged seq %d", w, l.acked[k].seq)
			}
		}
		return ""
	}
	if int(writer) >= len(logs) || seq == 0 || seq > logs[writer].issued {
		return fmt.Sprintf("holds writer %d seq %d, which was never issued", writer, seq)
	}
	own := logs[writer].acked[k]
	if seq < own.seq {
		return fmt.Sprintf("holds writer %d seq %d, older than its acknowledged seq %d", writer, seq, own.seq)
	}
	if seq > own.seq {
		return "" // a later write that failed or timed out at the client may still have landed
	}
	for w, l := range logs {
		if o := l.acked[k]; uint32(w) != writer && o.seq != 0 && o.start > own.end {
			return fmt.Sprintf("holds writer %d seq %d, but writer %d seq %d was acknowledged after it", writer, seq, w, o.seq)
		}
	}
	return ""
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile is the highest quantile, up to p99, that still has at
// least ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 1
	}
	return min(0.99, 1-10/float64(n))
}

// kindStats summarises the successful requests of one kind that
// completed in a time slice.
type kindStats struct {
	n        int
	lats     []time.Duration // ascending
	p50, p99 time.Duration
	tailQ    float64 // the quantile p99 really is (see tailQuantile)
}

// Request kinds as sliceStats indexes them.
const (
	kindRead = iota
	kindWrite
)

var kindNames = [2]string{kindRead: "read", kindWrite: "write"}

// sliceStats summarises one time slice of the load.
type sliceStats struct {
	requests, failed int
	keys, writeKeys  int // acknowledged: all, and by write requests
	writeReqs        int // write requests, failed ones included
	kind             [2]kindStats
}

func summarize(logs []*clientLog, from, to time.Duration) sliceStats {
	var st sliceStats
	for _, l := range logs {
		for _, s := range l.samples {
			if s.end < from || s.end >= to {
				continue
			}
			k := kindRead
			if s.kind.write() {
				k = kindWrite
				st.writeReqs++
				st.writeKeys += s.keys
			}
			st.requests++
			st.keys += s.keys
			if !s.ok {
				st.failed++
				continue
			}
			st.kind[k].lats = append(st.kind[k].lats, s.lat)
		}
	}
	for k := range st.kind {
		ks := &st.kind[k]
		sort.Slice(ks.lats, func(i, j int) bool { return ks.lats[i] < ks.lats[j] })
		ks.n = len(ks.lats)
		ks.tailQ = tailQuantile(ks.n)
		ks.p50 = percentile(ks.lats, 0.50)
		ks.p99 = percentile(ks.lats, ks.tailQ)
	}
	return st
}

// blended is the request-share-weighted mean of a per-kind latency
// figure.  Pooling the kinds first would put the median of a 50/50 mix
// of a fast and a slow kind in the empty gap between the two modes,
// where it flips from one to the other between runs.
func (s *sliceStats) blended(of func(*kindStats) time.Duration) float64 {
	n := s.kind[kindRead].n + s.kind[kindWrite].n
	if n == 0 {
		return 0
	}
	sum := 0.0
	for k := range s.kind {
		sum += float64(s.kind[k].n) * ms(of(&s.kind[k]))
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
