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
// toward their owners in sub-batches: the receiving snode serves the keys
// it owns locally and forwards one sub-batch per next-hop host, waiting on
// all of them in parallel.  Because keys owned by different vnodes/groups
// are handled by different snodes concurrently, a batch exploits exactly
// the per-group parallelism the local approach is built around (§3.1) —
// one client round-trip fans out into parallel per-owner work instead of
// N serial request/response cycles.

// batchItem is one operation of a batch (Value is used by puts only).
type batchItem struct {
	Key   string
	Value []byte
}

// batchReq carries a group of same-verb data operations.  It is the one
// request passed on along custody chains, by call: each hop serves what
// it owns, splits the rest by next hop and answers its own caller.
type batchReq struct {
	Op    uint64
	Kind  dataOp
	Items []batchItem
	Hops  int
	// ReadReplica marks a failover read: the receiver serves the keys
	// straight from its replica store instead of the ownership path.
	ReadReplica bool
	// Known is the receiver's route epoch that tags the handle's route of
	// every item (0: none, or not one epoch).  While the receiver's epoch
	// still equals it, the routes it would teach are the ones the handle
	// holds, and its reply leaves them out.
	Known uint64
}

// batchItemResp is the per-key outcome inside a batchResp, parallel to the
// request's Items.
type batchItemResp struct {
	Value []byte
	Found bool
	Err   string
}

// batchResp answers a batchReq.  Served carries the partitions the
// responder chain resolved, so requesters (the cluster handle included)
// can aim future batches directly at the owners — all but those the
// handle named a current route epoch for (batchReq.Known).
type batchResp struct {
	Op      uint64
	Results []batchItemResp
	Served  []routeEntry
}

func (m batchResp) replyOp() uint64  { return m.Op }
func (m batchResp) replyErr() string { return "" }

// handleBatch serves a batch: local keys are applied immediately, the rest
// are regrouped by next hop and forwarded as sub-batches awaited in
// parallel.  Runs outside the actor loop (it performs nested RPCs).
func (s *Snode) handleBatch(m batchReq, from transport.NodeID, tr transport.TraceContext) {
	if m.ReadReplica {
		s.serveReplicaRead(m, from, tr)
		return
	}
	sp := beginSpan(tr, "batch.serve")
	s.stats.Batches.Add(1)
	results := make([]batchItemResp, len(m.Items))
	var served []routeEntry
	forwards := make(map[transport.NodeID][]int)
	replicate := s.cfg.Replicas > 1 && m.Kind != opGet
	var (
		replWrites map[hashspace.Partition][]batchItem
		replDests  map[hashspace.Partition][]transport.NodeID
		replMeta   map[hashspace.Partition]replFanMeta
	)
	var localWrites []int // indices applied locally and pending replica acks
	var (
		walMax     uint64 // highest WAL sequence journaled for this batch
		walClosed  bool   // a journal append was refused (snode stopping)
		durWrites  []int  // indices whose ack awaits WAL durability
		walScratch []byte // reused record-encoding slab (durability on)
	)
	if replicate {
		replWrites = make(map[hashspace.Partition][]batchItem)
		replDests = make(map[hashspace.Partition][]transport.NodeID)
		replMeta = make(map[hashspace.Partition]replFanMeta)
	}

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
		idxs  []int
	}

	// Classification runs under one short s.mu pass that only resolves
	// ownership — no data is read or written while the snode-wide lock is
	// held.  The data itself is then applied per bucket under that
	// bucket's lock, so concurrent batches for different partitions on
	// this snode proceed in parallel.  Items landing on a frozen
	// partition (mid-transfer) are retried until the transfer settles and
	// they either apply locally or chase the new custody pointer — but
	// only within FreezeTimeout: a wedged transfer must surface per-key
	// errors, not spin this goroutine forever.
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
		// routes it holds: a reply to it directly leaves them out.
		epoch := s.routeEpoch
		teach := m.Hops > 0 || m.Known != epoch
		for _, i := range pending {
			h := hashes[i]
			if ref, p, ok := s.ownedForLocked(h); ok {
				bk := ref.bk
				w := work[bk]
				if w == nil {
					reps := s.ownedReplicasLocked(p, ref)
					if replicate {
						replDests[p] = reps
					}
					w = &bucketWork{owner: ownerRef{Vnode: ref.vs.name, Host: s.id}, p: p, group: ref.vs.group, reps: reps}
					work[bk] = w
				}
				w.idxs = append(w.idxs, i)
				continue
			}
			if m.Hops >= maxHops {
				results[i] = batchItemResp{Err: fmt.Sprintf("data op exceeded %d hops", m.Hops)}
				continue
			}
			ref, ok := s.forwardTargetLocked(h, m.Hops == 0)
			if !ok {
				results[i] = batchItemResp{Err: "no route: empty DHT view"}
				continue
			}
			forwards[ref.Host] = append(forwards[ref.Host], i)
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
					if bk.mig != nil {
						// The bucket is streaming out in a live migration:
						// record the key so a delta round re-ships it.
						bk.mig.dirty[it.Key] = struct{}{}
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
				for _, i := range w.idxs {
					replWrites[w.p] = append(replWrites[w.p], m.Items[i])
				}
				replMeta[w.p] = replFanMeta{ver: verAfter, group: w.group}
				localWrites = append(localWrites, w.idxs...)
			}
			if teach {
				served = append(served, routeEntry{Partition: w.p, Ref: w.owner, Replicas: w.reps, Epoch: epoch})
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

	// Fan the sub-batches out in parallel — each next hop resolves its
	// share concurrently — and scatter the answers back in place.  The
	// replica fan-out for locally applied writes rides the same wait:
	// writes are acknowledged only after their replicas answered.
	var (
		wg      sync.WaitGroup
		mergeMu sync.Mutex
		replErr error
	)
	if replicate && len(replWrites) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rsp := beginSpan(sp.ctx, "batch.repl-ack")
			t0 := time.Now()
			err := s.replicate(m.Kind, replWrites, replDests, replMeta, rsp.ctx)
			s.lat.replAck.ObserveSince(t0)
			s.tracer.finishErr(rsp, s.id, err)
			if err != nil {
				mergeMu.Lock()
				replErr = err
				mergeMu.Unlock()
			}
		}()
	}
	for host, idxs := range forwards {
		wg.Add(1)
		go func(host transport.NodeID, idxs []int) {
			defer wg.Done()
			sub := make([]batchItem, len(idxs))
			for j, i := range idxs {
				sub[j] = m.Items[i]
			}
			s.stats.Forwards.Add(1)
			fsp := beginSpan(sp.ctx, "batch.forward")
			resp, err := ask[batchResp](&s.endpoint, host, fsp.ctx, func(op uint64) transport.WireMessage {
				return batchReq{Op: op, Kind: m.Kind, Items: sub, Hops: m.Hops + 1}
			})
			s.tracer.finishErr(fsp, s.id, err)
			mergeMu.Lock()
			defer mergeMu.Unlock()
			if err != nil {
				for _, i := range idxs {
					results[i] = batchItemResp{Err: err.Error()}
				}
				return
			}
			for j, i := range idxs {
				if j < len(resp.Results) {
					results[i] = resp.Results[j]
				} else {
					results[i] = batchItemResp{Err: fmt.Sprintf("short batch response from %d", host)}
				}
			}
			served = append(served, resp.Served...)
		}(host, idxs)
	}
	wg.Wait()
	if replErr != nil {
		// Stopping mid-batch: the local copies die with this snode, so
		// the affected writes must not be acknowledged as durable.
		for _, i := range localWrites {
			results[i] = batchItemResp{Err: "replication aborted: " + replErr.Error()}
		}
	}
	// The durability wait rides after the parallel fan-out (the group
	// fsync overlapped with the network round-trips): a write is
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
	s.send(from, untraced, batchResp{Op: m.Op, Results: results, Served: dedupRoutes(served)})
}

// dedupRoutes keeps one entry per partition (the last one wins — deeper
// in the response merge means closer to the current owner), so Served
// lists stay proportional to partitions touched, not items served.
func dedupRoutes(entries []routeEntry) []routeEntry {
	if len(entries) <= 1 {
		return entries
	}
	seen := make(map[hashspace.Partition]int, len(entries))
	out := entries[:0]
	for _, e := range entries {
		if i, ok := seen[e.Partition]; ok {
			out[i] = e
			continue
		}
		seen[e.Partition] = len(out)
		out = append(out, e)
	}
	return out
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

// route is one cached owner pointer at the handle, together with the
// partition's replica hosts for read failover.  dead marks a route whose
// primary crashed but whose replicas survive: reads aim straight at a
// replica (no doomed RPC to the dead primary first), writes re-resolve.
// keep marks a route whose replica list was emptied by a crash purge while
// its primary stayed live: invalidateStaleRoutes treats it like a
// replica-backed route (retained on transient RPC failure), because a
// crash can orphan custody chains and leave this cached pointer as the
// only path to a perfectly healthy partition.  epoch is the owner's route
// epoch when it taught the route (0: learned from an announcement).
type route struct {
	ref      ownerRef
	replicas []transport.NodeID
	dead     bool
	keep     bool
	epoch    uint64
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
		c.routes[e.Partition] = route{ref: e.Ref, replicas: e.Replicas, epoch: e.Epoch}
	}
}

// purgeRoutesTo rewrites the handle's cache when a snode departs, so the
// first post-departure batch pays no failed round-trip discovering it.
//
// Graceful leave: the leaver's partitions all migrated to survivors and
// its custody table was bequeathed, so every pointer at it — owner routes
// and replica-set entries alike — is dropped outright; re-resolution
// through the (intact) custody chains relearns fresh routes.
//
// Crash: a route whose primary died but whose replicas survive is kept
// and marked dead, so the very next read goes straight to a replica
// instead of burning a failed RPC; a victim route that knows no replicas
// is dropped (nothing can serve it).  The dead host is also stripped from
// the replica list of every OTHER route — a failover read must never aim
// at the crashed replica.  When that strip empties a previously non-empty
// list the route is marked keep instead of losing its retention signal:
// a crash can orphan custody chains, leaving cached routes as the only
// path to perfectly healthy partitions, and invalidateStaleRoutes must
// not let one transient post-crash timeout evict the irreplaceable route.
func (c *Cluster) purgeRoutesTo(host transport.NodeID, crashed bool) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	for p, rt := range c.routes {
		if n := stripHost(rt.replicas, host); len(n) != len(rt.replicas) {
			if crashed && len(n) == 0 {
				rt.keep = true
			}
			rt.replicas = n
			c.routes[p] = rt
		}
		if rt.ref.Host != host {
			continue
		}
		if crashed && len(rt.replicas) > 0 {
			rt.dead = true
			c.routes[p] = rt
			continue
		}
		delete(c.routes, p)
		c.routeLvls.Remove(p.Level)
	}
}

// stripHost filters one host out of a replica list, returning the input
// slice unchanged when the host is absent.
func stripHost(reps []transport.NodeID, host transport.NodeID) []transport.NodeID {
	found := false
	for _, r := range reps {
		if r == host {
			found = true
			break
		}
	}
	if !found {
		return reps
	}
	out := make([]transport.NodeID, 0, len(reps)-1)
	for _, r := range reps {
		if r != host {
			out = append(out, r)
		}
	}
	return out
}

// invalidateStaleRoutes handles a host that stopped answering mid-batch:
// routes aimed at it with no surviving replica are dropped (stale — the
// retry re-resolves them via the normal lookup path), while routes that
// know replica hosts — or carry the keep mark from a crash purge that
// emptied their list — are retained, so every later read of a dead
// primary's partition keeps failing over instead of dead-ending in the
// custody chain.  Kept routes are deliberately NOT marked dead here: an
// RPC failure may be transient congestion at a live host (e.g. it is
// stuck forwarding into a crash), and only an authoritative departure
// (purgeRoutesTo, from RemoveSnode/KillSnode) may divert its traffic
// permanently.
func (c *Cluster) invalidateStaleRoutes(host transport.NodeID) {
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	for p, rt := range c.routes {
		if rt.ref.Host != host {
			continue
		}
		keep := rt.keep
		for _, rep := range rt.replicas {
			if rep != host {
				keep = true
				break
			}
		}
		if keep {
			continue
		}
		delete(c.routes, p)
		c.routeLvls.Remove(p.Level)
	}
}

// planFailover maps the items of a failed sub-batch to replica hosts able
// to serve them, using the replica sets cached alongside the owner routes.
// Called before the stale routes are dropped.
func (c *Cluster) planFailover(failed transport.NodeID, idxs []int, items []batchItem) map[transport.NodeID][]int {
	var plan map[transport.NodeID][]int
	c.routeMu.Lock()
	for _, i := range idxs {
		rt, ok := probeLevels(hashspace.HashString(items[i].Key), c.routes, &c.routeLvls)
		if !ok {
			continue
		}
		for _, rep := range rt.replicas {
			if rep != failed {
				if plan == nil {
					plan = make(map[transport.NodeID][]int)
				}
				plan[rep] = append(plan[rep], i)
				break
			}
		}
	}
	c.routeMu.Unlock()
	return plan
}

// mbatch groups the items by believed owner — cache hits go straight to
// the owning host, the rest spread across entry snodes by key hash — and
// issues every sub-batch in parallel.
//
// Failure handling: when the RPC to a believed owner errors, its routes
// are invalidated (invalidateStaleRoutes — routes whose partitions know
// surviving replicas are deliberately KEPT so later reads keep failing
// over), reads are failed over to the partition's cached replica hosts,
// and whatever remains is retried once through the normal lookup path via
// fresh entry snodes — hosts that just failed are not re-picked — before
// per-key errors surface.
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
	hashes := make([]hashspace.Index, len(items))
	for i := range items {
		hashes[i] = hashspace.HashString(items[i].Key)
	}
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}
	failedHosts := make(map[transport.NodeID]bool)
	for attempt := 0; attempt < 2 && len(pending) > 0; attempt++ {
		c.mu.Lock()
		order := append([]transport.NodeID(nil), c.order...)
		c.mu.Unlock()
		if len(order) == 0 {
			return results, fmt.Errorf("cluster: no snodes")
		}
		// Entry candidates exclude hosts that already failed this batch
		// (unless that would leave none).
		entries := order
		if len(failedHosts) > 0 {
			live := make([]transport.NodeID, 0, len(order))
			for _, id := range order {
				if !failedHosts[id] {
					live = append(live, id)
				}
			}
			if len(live) > 0 {
				entries = live
			}
		}
		groups := make(map[transport.NodeID][]int)
		// known[h] is the route epoch shared by every item aimed at h, or
		// 0 when they do not share one (batchReq.Known).
		known := make(map[transport.NodeID]uint64)
		var unrouted []int
		var replicaGroups map[transport.NodeID][]int
		if attempt == 0 {
			// Probe the owner cache for the whole batch under one lock
			// acquisition, not one per item.  A dead-primary route (crash
			// with surviving replicas) sends reads straight to a replica
			// and everything else back through the lookup path — never a
			// doomed RPC at the dead host.
			c.routeMu.Lock()
			for _, i := range pending {
				rt, ok := probeLevels(hashes[i], c.routes, &c.routeLvls)
				switch {
				case !ok:
					unrouted = append(unrouted, i)
				case rt.dead:
					if kind == opGet && len(rt.replicas) > 0 {
						if replicaGroups == nil {
							replicaGroups = make(map[transport.NodeID][]int)
						}
						replicaGroups[rt.replicas[0]] = append(replicaGroups[rt.replicas[0]], i)
					} else {
						unrouted = append(unrouted, i)
					}
				default:
					h := rt.ref.Host
					if e, seen := known[h]; !seen || e == rt.epoch {
						known[h] = rt.epoch
					} else {
						known[h] = 0
					}
					groups[h] = append(groups[h], i)
				}
			}
			c.routeMu.Unlock()
		} else {
			unrouted = pending
		}
		for _, i := range unrouted {
			// Unknown owner: deterministic spread over entry snodes, so
			// cold batches still classify in parallel across the cluster.
			// Retries rotate the entry so a dead first pick isn't re-chosen.
			entry := entries[(hashes[i]+uint64(attempt))%uint64(len(entries))]
			groups[entry] = append(groups[entry], i)
			known[entry] = 0
		}
		var (
			wg      sync.WaitGroup
			mergeMu sync.Mutex
			retry   []int
		)
		if len(replicaGroups) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				served := c.failoverReads(kind, replicaGroups, items, results, &mergeMu, root.ctx)
				mergeMu.Lock()
				for _, idxs := range replicaGroups {
					for _, i := range idxs {
						if !served[i] {
							retry = append(retry, i)
						}
					}
				}
				mergeMu.Unlock()
			}()
		}
		for host, idxs := range groups {
			wg.Add(1)
			go func(host transport.NodeID, idxs []int, known uint64) {
				defer wg.Done()
				sub := make([]batchItem, len(idxs))
				for j, i := range idxs {
					sub[j] = items[i]
				}
				rsp := beginSpan(root.ctx, "batch.rpc")
				t0 := time.Now()
				resp, err := ask[batchResp](&c.endpoint, host, rsp.ctx, func(op uint64) transport.WireMessage {
					return batchReq{Op: op, Kind: kind, Items: sub, Known: known}
				})
				c.batchRPC.ObserveSince(t0)
				c.tracer.finishErr(rsp, clientID, err)
				if err != nil {
					// The believed owner stopped answering.  Plan read
					// failover from the replica sets cached with the
					// routes, then invalidate the stale routes.
					c.subFails.Add(1)
					var plan map[transport.NodeID][]int
					if kind == opGet {
						plan = c.planFailover(host, idxs, items)
					}
					c.invalidateStaleRoutes(host)
					served := c.failoverReads(kind, plan, items, results, &mergeMu, root.ctx)
					mergeMu.Lock()
					failedHosts[host] = true
					for _, i := range idxs {
						if !served[i] {
							retry = append(retry, i)
						}
					}
					mergeMu.Unlock()
					return
				}
				mergeMu.Lock()
				defer mergeMu.Unlock()
				for j, i := range idxs {
					if j < len(resp.Results) {
						r := resp.Results[j]
						results[i].Value = r.Value
						results[i].Found = r.Found
						results[i].Err = r.Err
					} else {
						results[i].Err = fmt.Sprintf("short batch response from %d", host)
					}
				}
				c.learnRoutes(resp.Served)
			}(host, idxs, known[host])
		}
		wg.Wait()
		if attempt == 1 {
			for _, i := range retry {
				results[i].Err = "cluster: batch sub-request failed after retry"
			}
			retry = nil
		}
		pending = retry
	}
	return results, nil
}

// failoverReads issues the planned ReadReplica sub-batches and merges the
// answers, returning the set of item indices actually served.
func (c *Cluster) failoverReads(kind dataOp, plan map[transport.NodeID][]int, items []batchItem, results []BatchResult, mergeMu *sync.Mutex, tr transport.TraceContext) map[int]bool {
	served := make(map[int]bool)
	for rhost, ridxs := range plan {
		sub := make([]batchItem, len(ridxs))
		for j, i := range ridxs {
			sub[j] = items[i]
		}
		rsp := beginSpan(tr, "batch.failover-read")
		t0 := time.Now()
		resp, err := ask[batchResp](&c.endpoint, rhost, rsp.ctx, func(op uint64) transport.WireMessage {
			return batchReq{Op: op, Kind: kind, Items: sub, ReadReplica: true}
		})
		c.batchRPC.ObserveSince(t0)
		c.tracer.finishErr(rsp, clientID, err)
		if err != nil {
			c.subFails.Add(1)
			continue
		}
		mergeMu.Lock()
		for j, i := range ridxs {
			if j < len(resp.Results) && resp.Results[j].Err == "" {
				results[i].Value = resp.Results[j].Value
				results[i].Found = resp.Results[j].Found
				results[i].Err = ""
				served[i] = true
			}
		}
		mergeMu.Unlock()
	}
	return served
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
