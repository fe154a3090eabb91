package cluster

import (
	"fmt"
	"sync"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Batched data plane.  A batch groups same-verb operations and moves them
// toward their owners in sub-batches, one per believed owner, all in
// flight at once.  The receiving snode serves the keys it owns and, like
// a lookup, redirects the rest: each such item comes back naming its next
// custody hop (batchItemResp.Next), and the handle asks that hop itself.
// Because keys owned by different vnodes/groups are handled by different
// snodes concurrently, a batch exploits exactly the per-group parallelism
// the local approach is built around (§3.1) — one client operation fans
// out into parallel per-owner work instead of N serial request/response
// cycles.

// batchItem is one operation of a batch (Value is used by puts only).
type batchItem struct {
	Key   string
	Value []byte
}

// batchReq carries a group of same-verb data operations to one snode,
// which answers for every item: served, refused, or redirected.
type batchReq struct {
	Op    uint64
	Kind  dataOp
	Items []batchItem
	// Known is the receiver's route epoch that tags the handle's route of
	// every item (0: none, or not one epoch).  While the receiver's epoch
	// still equals it, the routes it would teach are the ones the handle
	// holds, and its reply leaves them out.
	Known uint64
}

// batchItemResp is the per-key outcome inside a batchResp, parallel to the
// request's Items.  A non-zero Next is a redirect: the responder does not
// own the key and names the next custody hop to ask (snode ids start at 1).
type batchItemResp struct {
	Value []byte
	Found bool
	Err   string
	Next  transport.NodeID
}

// batchResp answers a batchReq.  Served carries the partitions the
// responder served, one entry each (its ownership index never holds two
// overlapping partitions), so the handle can aim future batches directly
// at the owners — all but those it named a current route epoch for
// (batchReq.Known).
type batchResp struct {
	Op      uint64
	Results []batchItemResp
	Served  []routeEntry
}

func (m batchResp) replyOp() uint64  { return m.Op }
func (m batchResp) replyErr() string { return "" }

// handleBatch serves a batch: owned keys are applied, the rest are
// answered with their next custody hop, exactly as handleLookup answers.
// Its only outbound calls are the replica fan-out of the writes it
// applied.  Runs outside the actor loop (it waits on replicas and the WAL).
func (s *Snode) handleBatch(m batchReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "batch.serve")
	s.stats.Batches.Add(1)
	results := make([]batchItemResp, len(m.Items))
	var served []routeEntry
	replicate := s.cfg.Replicas > 1 && m.Kind != opGet
	var shares []replShare // each written bucket's share of the replica fan-out
	var localWrites []int  // indices applied locally and pending replica acks
	var (
		walMax     uint64 // highest WAL sequence journaled for this batch
		walClosed  bool   // a journal append was refused (snode stopping)
		durWrites  []int  // indices whose ack awaits WAL durability
		walScratch []byte // reused record-encoding slab (durability on)
	)
	// Hash every key before taking any lock.
	hashes := make([]hashspace.Index, len(m.Items))
	for i, it := range m.Items {
		hashes[i] = hashspace.HashString(it.Key)
	}

	// bucketWork is one bucket's share of the batch: resolved during the
	// classification pass, applied under the bucket's own lock.
	type bucketWork struct {
		owner ownerRef
		p     hashspace.Partition
		group core.GroupID
		reps  []transport.NodeID
		seed  bool
		idxs  []int
	}

	// Classification runs under one short s.mu pass that only resolves
	// ownership — no data is read or written while the snode-wide lock is
	// held.  The data itself is then applied per bucket under that
	// bucket's lock, so concurrent batches for different partitions on
	// this snode proceed in parallel.  Items landing on a frozen
	// partition (mid-transfer) are retried until the transfer settles and
	// they either apply locally or are redirected along the new custody
	// pointer — but only within FreezeTimeout: a wedged transfer must
	// surface per-key errors, not spin this goroutine forever.
	pending := make([]int, len(m.Items))
	for i := range pending {
		pending[i] = i
	}
	var freezeDeadline time.Time
	for len(pending) > 0 {
		var frozen []int
		work := make(map[*bucket]*bucketWork)
		s.mu.Lock()
		// Entries resolved under the epoch the handle named equal the
		// routes it holds: the reply leaves them out.
		epoch := s.routeEpoch
		teach := m.Known != epoch
		for _, i := range pending {
			h := hashes[i]
			if ref, p, ok := s.ownedForLocked(h); ok {
				bk := ref.bk
				w := work[bk]
				if w == nil {
					w = &bucketWork{owner: ownerRef{Vnode: ref.vs.name, Host: s.id}, p: p, group: ref.vs.group}
					if replicate {
						w.reps = s.fanoutLocked(p)
						w.seed = !s.placedLiveLocked(p)
					}
					work[bk] = w
				}
				w.idxs = append(w.idxs, i)
				continue
			}
			ref, ok := s.forwardTargetLocked(h)
			if !ok {
				results[i] = batchItemResp{Err: s.noRoute()}
				continue
			}
			s.stats.Forwards.Add(1)
			results[i] = batchItemResp{Next: ref.Host}
		}
		s.mu.Unlock()

		// Apply each bucket's share under its own lock.  A bucket whose
		// state moved since classification requeues its items: a freeze
		// joins the frozen-deadline path, a death (shipped or split away)
		// re-classifies against the new ownership.  Writes are journaled
		// under the same bucket lock that applies them (one record per
		// bucket per batch) and acknowledged only once durable.
		var again []int
		for bk, w := range work {
			var verAfter uint64 // bucket write version after this apply
			if m.Kind == opGet {
				bk.mu.RLock()
				if bk.state == bucketDead {
					bk.mu.RUnlock()
					again = append(again, w.idxs...)
					continue
				}
				var readBytes int64
				for _, i := range w.idxs {
					v, found := bk.kv.m[m.Items[i].Key]
					readBytes += int64(len(v))
					results[i] = batchItemResp{Value: v, Found: found}
				}
				bk.mu.RUnlock()
				bk.noteReads(int64(len(w.idxs)), readBytes)
			} else {
				bk.mu.Lock()
				if bk.state != bucketLive {
					st := bk.state
					bk.mu.Unlock()
					if st == bucketFrozen {
						frozen = append(frozen, w.idxs...)
					} else {
						again = append(again, w.idxs...)
					}
					continue
				}
				var wroteBytes int64
				if s.dur != nil {
					// The one mutation that is not a record's applyLocked
					// plus journal (walrec.go): the record is encoded
					// inline as the items apply (the walWriteRec layout,
					// with the item count known upfront), into a scratch
					// slab reused across this batch's buckets — no
					// per-bucket slice or closure allocations on the hot
					// path.  Replay runs walWriteRec.applyLocked.
					walScratch = encodeWalWriteHeader(walScratch[:0], m.Kind, w.p, len(w.idxs))
				}
				for _, i := range w.idxs {
					it := m.Items[i]
					switch m.Kind {
					case opPut:
						bk.kv.put(it.Key, it.Value)
						wroteBytes += int64(len(it.Value))
						results[i] = batchItemResp{Found: true}
					case opDel:
						results[i] = batchItemResp{Found: bk.kv.del(it.Key)}
					}
					if s.dur != nil {
						walScratch = transport.AppendString(walScratch, it.Key)
						walScratch = transport.AppendBytes(walScratch, it.Value)
					}
					if bk.dirty != nil {
						// The bucket is moving out: record the key so the
						// move's commit ships its value.
						bk.dirty[it.Key] = struct{}{}
					}
				}
				if s.dur != nil {
					// Journal under the bucket lock: the snapshot pass reads
					// buckets under the same lock, so a record below its cut
					// is always reflected in the bucket it serializes.
					seq := s.dur.log.Append(walScratch)
					if seq == 0 {
						walClosed = true
					} else if seq > walMax {
						walMax = seq
					}
					durWrites = append(durWrites, w.idxs...)
				}
				// Bump the bucket's write version under the same lock that
				// applied the writes: the replica fan-out below carries it, so
				// replicas rank freshness during a failover election.
				bk.ver++
				verAfter = bk.ver
				bk.mu.Unlock()
				bk.noteWrites(int64(len(w.idxs)), wroteBytes)
			}
			s.stats.DataOps.Add(int64(len(w.idxs)))
			if replicate && len(w.reps) > 0 {
				sh := replShare{hosts: w.reps, seed: w.seed, set: replWriteSet{Partition: w.p, Ver: verAfter, Group: w.group}}
				for _, i := range w.idxs {
					sh.set.Items = append(sh.set.Items, m.Items[i])
				}
				shares = append(shares, sh)
				localWrites = append(localWrites, w.idxs...)
			}
			if teach {
				served = append(served, routeEntry{Partition: w.p, Ref: w.owner, Epoch: epoch})
			}
		}

		if len(frozen) > 0 {
			now := time.Now()
			if freezeDeadline.IsZero() {
				freezeDeadline = now.Add(s.cfg.FreezeTimeout)
			} else if now.After(freezeDeadline) {
				s.stats.FreezeTimeouts.Add(int64(len(frozen)))
				for _, i := range frozen {
					results[i] = batchItemResp{Err: fmt.Sprintf(
						"partition frozen: transfer did not settle within %v", s.cfg.FreezeTimeout)}
				}
				frozen = nil
			}
			if len(frozen) > 0 {
				s.stats.Requeues.Add(int64(len(frozen)))
				time.Sleep(200 * time.Microsecond)
			}
		}
		pending = append(frozen, again...)
	}

	// Writes are acknowledged only after their replicas answered; the
	// group fsync of their journal records runs meanwhile.
	if len(localWrites) > 0 {
		rsp := beginSpan(sp.ctx, "batch.repl-ack")
		t0 := time.Now()
		err := s.replicate(m.Kind, shares, rsp.ctx)
		s.lat.replAck.ObserveSince(t0)
		s.tracer.finishErr(rsp, s.id, err)
		if err != nil {
			// Stopping mid-batch: the local copies die with this snode, so
			// the affected writes must not be acknowledged as durable.
			for _, i := range localWrites {
				results[i] = batchItemResp{Err: "replication aborted: " + err.Error()}
			}
		}
	}
	// The durability wait rides after the replica fan-out: a write is
	// acknowledged only once its journal record is on disk per the
	// configured fsync mode.
	walOK := !walClosed
	if walOK && walMax > 0 {
		wsp := beginSpan(sp.ctx, "batch.wal-wait")
		walOK = s.awaitDurable(walMax)
		outcome := ""
		if !walOK {
			outcome = "wal-closed"
		}
		s.tracer.finish(wsp, s.id, outcome)
	}
	if !walOK {
		for _, i := range durWrites {
			results[i] = batchItemResp{Err: "wal aborted: snode stopping"}
		}
	}

	s.tracer.finish(sp, s.id, "")
	s.send(from, untraced, batchResp{Op: m.Op, Results: results, Served: served})
}

// --- client side (the Cluster handle) ---

// KV is one key/value pair of a batch put.
type KV struct {
	Key   string
	Value []byte
}

// BatchResult is the per-key outcome of a batch operation, parallel to the
// input slice.  Err is empty on success; Found/Value follow the semantics
// of the single-key Get/Put/Delete.
type BatchResult struct {
	Key   string
	Value []byte
	Found bool
	Err   string
}

// OK reports whether the operation on this key succeeded.
func (r BatchResult) OK() bool { return r.Err == "" }

// MPut stores many key/value pairs in one batched operation.  Results are
// parallel to items; batches are partial-failure capable — inspect each
// BatchResult.Err.  The returned error is reserved for cluster-level
// failures (no snodes, shut down fabric).
func (c *Cluster) MPut(items []KV) ([]BatchResult, error) {
	bi := make([]batchItem, len(items))
	keys := make([]string, len(items))
	for i, it := range items {
		bi[i] = batchItem{Key: it.Key, Value: it.Value}
		keys[i] = it.Key
	}
	return c.mbatch(opPut, keys, bi)
}

// MGet fetches many keys in one batched operation.
func (c *Cluster) MGet(keys []string) ([]BatchResult, error) {
	bi := make([]batchItem, len(keys))
	for i, k := range keys {
		bi[i] = batchItem{Key: k}
	}
	return c.mbatch(opGet, keys, bi)
}

// MDelete removes many keys in one batched operation.
func (c *Cluster) MDelete(keys []string) ([]BatchResult, error) {
	bi := make([]batchItem, len(keys))
	for i, k := range keys {
		bi[i] = batchItem{Key: k}
	}
	return c.mbatch(opDel, keys, bi)
}

// route is one cached owner pointer at the handle.  epoch is the owner's
// route epoch when it taught the route (0: learned from an announcement).
// A route leaves the cache only when its host departs (purgeRoutesTo) or
// a newer answer replaces it: a failed RPC proves nothing about the host,
// and after a crash a cached route can be the only way to a live
// partition whose custody chain ran through the dead snode.
type route struct {
	ref   ownerRef
	epoch uint64
}

// learnRoutes folds served-partition info from batch responses into the
// handle's owner cache, so subsequent batches aim straight at the owners.
func (c *Cluster) learnRoutes(entries []routeEntry) {
	if len(entries) == 0 {
		return
	}
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	for _, e := range entries {
		if _, ok := c.routes[e.Partition]; !ok {
			c.routeLvls.Add(e.Partition.Level)
		}
		c.routes[e.Partition] = route{ref: e.Ref, epoch: e.Epoch}
	}
}

// purgeRoutesTo drops every cached route aimed at a departed snode, so
// the first post-departure batch pays no failed round-trip discovering
// it.  Re-resolution through the custody chains relearns the partitions'
// owners: survivors after a graceful leave, promoted replicas (announced
// to the handle) after a crash.
func (c *Cluster) purgeRoutesTo(host transport.NodeID) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	for p, rt := range c.routes {
		if rt.ref.Host == host {
			delete(c.routes, p)
			c.routeLvls.Remove(p.Level)
		}
	}
}

// batchRun is one mbatch call in flight: its items, their results, and
// the sub-batches still carrying some of them on (wg).
type batchRun struct {
	c       *Cluster
	kind    dataOp
	items   []batchItem
	hashes  []hashspace.Index
	results []BatchResult // written under mu
	tr      transport.TraceContext
	wg      sync.WaitGroup

	mu      sync.Mutex
	entries []transport.NodeID        // guarded by mu; retry entry snodes: every snode but those that failed
	failed  map[transport.NodeID]bool // guarded by mu; hosts that failed this batch (nil: none)
	retried []bool                    // guarded by mu; per item, its one retry is spent (nil: none is)
	bounced []bool                    // guarded by mu; per item, its one redirect back to via is spent (nil: none is)
}

// mbatch groups the items by believed owner — cache hits go straight to
// the owning host, the rest spread across entry snodes by key hash — and
// issues every sub-batch in parallel.  Each sub-batch carries its own
// items on as soon as its reply arrives (batchRun.ask), so an item sent
// elsewhere never waits behind a slow sibling sub-batch.
func (c *Cluster) mbatch(kind dataOp, keys []string, items []batchItem) ([]BatchResult, error) {
	results := make([]BatchResult, len(items))
	for i, k := range keys {
		results[i].Key = k
	}
	if len(items) == 0 {
		return results, nil
	}
	// Head-sampling decision for the whole operation: one atomic load when
	// tracing is off.  The root span's parent is 0 (the sampler context
	// carries no span id), marking it as an operation root for Traces().
	root := beginSpan(c.sampler.next(), batchOpName(kind))
	start := root.start
	if !root.active() && c.slowOp > 0 {
		start = time.Now()
	}
	defer func() {
		c.tracer.finish(root, clientID, "")
		if c.slowOp > 0 && time.Since(start) >= c.slowOp {
			c.logSlowOp(batchOpName(kind), len(items), time.Since(start), root)
		}
	}()
	c.mu.Lock()
	order := append([]transport.NodeID(nil), c.order...)
	c.mu.Unlock()
	if len(order) == 0 {
		return results, fmt.Errorf("cluster: no snodes")
	}
	b := &batchRun{c: c, kind: kind, items: items, hashes: make([]hashspace.Index, len(items)),
		results: results, tr: root.ctx, entries: order}
	for i := range items {
		b.hashes[i] = hashspace.HashString(items[i].Key)
	}
	groups := make(map[transport.NodeID][]int)
	// known[h] is the route epoch shared by every item aimed at h, or 0
	// when they do not share one (batchReq.Known).
	known := make(map[transport.NodeID]uint64)
	// Probe the owner cache for the whole batch under one lock
	// acquisition, not one per item.
	c.routeMu.Lock()
	for i, h := range b.hashes {
		if rt, ok := probeLevels(h, c.routes, &c.routeLvls); ok {
			host := rt.ref.Host
			if e, seen := known[host]; !seen || e == rt.epoch {
				known[host] = rt.epoch
			} else {
				known[host] = 0
			}
			groups[host] = append(groups[host], i)
			continue
		}
		// Unknown owner: deterministic spread over entry snodes, so cold
		// batches still classify in parallel across the cluster.
		entry := order[h%uint64(len(order))]
		groups[entry] = append(groups[entry], i)
		known[entry] = 0
	}
	c.routeMu.Unlock()
	for host, idxs := range groups {
		b.wg.Add(1)
		go b.ask(host, idxs, known[host], 0, 0)
	}
	b.wg.Wait()
	return results, nil
}

// ask sends the items idxs to host as one sub-batch, the hop-th ask of
// their way to their owners, and settles them with the answer.  via is
// the host whose redirect named host (0: none); every item of one onward
// sub-batch came from one settle, so they share it.  A failed host keeps
// its cached routes (see route) but serves as no retry entry for the rest
// of this batch.
func (b *batchRun) ask(host transport.NodeID, idxs []int, known uint64, hop int, via transport.NodeID) {
	defer b.wg.Done()
	c := b.c
	sub := make([]batchItem, len(idxs))
	for j, i := range idxs {
		sub[j] = b.items[i]
	}
	rsp := beginSpan(b.tr, "batch.rpc")
	t0 := time.Now()
	resp, err := ask[batchResp](&c.endpoint, host, rsp.ctx, func(op uint64) transport.WireMessage {
		return batchReq{Op: op, Kind: b.kind, Items: sub, Known: known}
	})
	c.batchRPC.ObserveSince(t0)
	c.tracer.finishErr(rsp, clientID, err)
	if err == nil {
		c.learnRoutes(resp.Served)
		b.settle(host, idxs, &resp, hop, via)
		return
	}
	c.subFails.Add(1)
	c.mu.Lock()
	order := append([]transport.NodeID(nil), c.order...)
	c.mu.Unlock()
	b.mu.Lock()
	if b.failed == nil {
		b.failed = make(map[transport.NodeID]bool)
	}
	b.failed[host] = true
	// Retry entries exclude hosts that already failed this batch, unless
	// that would leave none.
	live := make([]transport.NodeID, 0, len(order))
	for _, id := range order {
		if !b.failed[id] {
			live = append(live, id)
		}
	}
	if len(live) > 0 {
		b.entries = live
	}
	b.mu.Unlock()
	b.settle(host, idxs, nil, hop, via)
}

// settle gives each item of a sub-batch its next target, from host's
// answer resp (nil: host failed).  An answered item takes its result and
// ends.  A redirected item goes to the hop its result names, within
// hopLimit; a redirect back to via is followed once, and a second one
// ends the item with a custody cycle error.  An item left unserved by a
// failure gets one retry at a fresh entry snode, picked like a cold
// item's but one place on — and one more when that is via, whose stale
// pointer led to the failed host — before a per-key error surfaces.  The
// items moving on are regrouped by target and asked at once, one
// sub-batch per target.
func (b *batchRun) settle(host transport.NodeID, idxs []int, resp *batchResp, hop int, via transport.NodeID) {
	var onward map[transport.NodeID][]int
	b.mu.Lock()
	for j, i := range idxs {
		var next transport.NodeID
		switch {
		case resp == nil:
			if b.retried == nil {
				b.retried = make([]bool, len(b.items))
			}
			if b.retried[i] {
				b.results[i].Err = "cluster: batch sub-request failed after retry"
				continue
			}
			b.retried[i] = true
			n := uint64(len(b.entries))
			if next = b.entries[(b.hashes[i]+1)%n]; next == via {
				next = b.entries[(b.hashes[i]+2)%n]
			}
		case j >= len(resp.Results):
			b.results[i].Err = fmt.Sprintf("short batch response from %d", host)
			continue
		case resp.Results[j].Next == 0:
			r := resp.Results[j]
			b.results[i].Value, b.results[i].Found, b.results[i].Err = r.Value, r.Found, r.Err
			continue
		default:
			next = resp.Results[j].Next
			if next == via {
				if b.bounced == nil {
					b.bounced = make([]bool, len(b.items))
				}
				if b.bounced[i] {
					b.results[i].Err = "cluster: " + custodyCycle(via, host)
					continue
				}
				b.bounced[i] = true
			}
		}
		if err := hopLimit(hop + 1); err != nil {
			b.results[i].Err = "cluster: " + err.Error()
			continue
		}
		if onward == nil {
			onward = make(map[transport.NodeID][]int)
		}
		onward[next] = append(onward[next], i)
	}
	b.mu.Unlock()
	// The items of one settle are all redirects (by host) or all retries.
	from := host
	if resp == nil {
		from = 0
	}
	for to, ids := range onward {
		b.wg.Add(1)
		go b.ask(to, ids, 0, hop+1, from)
	}
}

// batchOpName names a batch verb for spans and slow-op logs.
func batchOpName(kind dataOp) string {
	switch kind {
	case opPut:
		return "op.mput"
	case opDel:
		return "op.mdel"
	default:
		return "op.mget"
	}
}

// logSlowOp emits a structured warning for a client batch that exceeded
// SlowOpThreshold.  A traced operation includes its full span breakdown —
// the root span just finished, so the rings hold the complete tree.
func (c *Cluster) logSlowOp(op string, items int, d time.Duration, root activeSpan) {
	if !root.active() {
		c.log.Warn("slow operation", "op", op, "items", items, "dur", d)
		return
	}
	spans := c.Trace(root.ctx.TraceID)
	attrs := make([]any, 0, 2*len(spans)+8)
	attrs = append(attrs, "op", op, "items", items, "dur", d, "trace", root.ctx.TraceID)
	for _, sp := range spans {
		attrs = append(attrs,
			fmt.Sprintf("span.%s@%d", sp.Name, sp.Snode), sp.Duration)
	}
	c.log.Warn("slow operation", attrs...)
}
