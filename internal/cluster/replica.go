package cluster

import (
	"fmt"
	"sort"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// R-way partition replication.  The paper's model is failure-free (§5);
// this file grows the runtime beyond it: every partition's primary (the
// owning vnode's host) keeps R−1 *replica buckets* on other snodes chosen
// deterministically from the DHT view, so an abrupt snode crash loses no
// acknowledged write.
//
//   - Writes are fanned to the replica hosts synchronously, reusing the
//     batch sub-request machinery: a write is acknowledged only once every
//     reachable replica applied it (an unreachable replica is recorded in
//     ReplLagged and repaired by anti-entropy rather than failing the
//     write — the primary still holds the data).
//   - Partition transfers re-home replica sets with the primary: the new
//     owner pushes fresh replica buckets before acknowledging the install,
//     and the old owner drops the buckets that became orphans.
//   - A background anti-entropy pass (one probe per replica host carrying
//     the maintained key count + checksum of every partition placed
//     there; see store.go) repairs replicas that diverge after a crash or
//     a missed write, and bootstraps replication for partitions that
//     predate their replica hosts.
//
// Replica placement is a pure function of (partition, primary, view):
// every snode with the same membership view picks the same replica hosts,
// so primaries, their successors after a transfer, and the anti-entropy
// pass all converge on one replica set without coordination.
//
// Placement is rendezvous (HRW) hashing: each (partition, host) pair gets
// a 64-bit score and the R−1 highest-scoring non-primary hosts back the
// partition.  Adding or removing one host therefore relocates only the
// replica sets whose score order that host perturbed — ~1/n of them —
// and the anti-entropy pass migrates exactly those deltas.
//
// Replicas serve no reads: a read goes where a write goes, to the
// partition's primary, so the one copy a client can observe is the one
// every write is applied to first (chain replication's rule, van Renesse
// & Schneider, OSDI 2004).  A read of a crashed primary's partition fails
// until a replica is promoted and announced, exactly as a write does.
//
// Each replica bucket also carries volatile metadata (replMeta): the
// primary's write version, the owning vnode's group, and the last primary
// host.  Failover promotion (failover.go) uses it to elect the
// most-caught-up replica deterministically.  It is deliberately not
// journaled: a restarted replica restarts at version 0 and loses
// elections to replicas that stayed up with the data in memory.
//
// Limitations (documented, by design of this increment): two
// *concurrent* writes of the same key may replicate in the opposite order
// from the primary's apply order (callers racing same-key writes have no
// ordering guarantee at the primary either — anti-entropy re-converges
// the replica within one interval); a replica bucket created before this
// snode learned its metadata (possible only across a version upgrade)
// cannot be promoted; ancestor buckets stranded at hosts with no deeper
// local bucket escape the stale sweep and linger as bounded garbage.

// viewUpdate is the cluster handle's membership broadcast: the sorted ids
// of every live snode, stamped with a monotonically increasing epoch so
// reordered deliveries cannot regress a receiver's view.  Replica
// placement derives from it.
type viewUpdate struct {
	Epoch  uint64
	Snodes []transport.NodeID
}

// replWriteSet is one partition's share of a replica write fan-out.  Ver
// and Group piggyback the failover metadata the replica needs to stand
// for its primary: the primary's post-apply write version for the bucket
// and the owning vnode's group.
type replWriteSet struct {
	Partition hashspace.Partition
	Items     []batchItem
	Ver       uint64
	Group     core.GroupID
}

// replWriteReq applies a batch's writes to the replica buckets its
// destination backs: one message per (primary → replica host) pair per
// batch, carrying every affected partition's items — the fan-out cost
// scales with hosts, not partitions.  Sent by the primary, synchronously,
// before the writes are acknowledged.
type replWriteReq struct {
	Op   uint64
	Kind dataOp
	Sets []replWriteSet
}

// partDigest is one partition's (key count, order-independent checksum)
// as its primary holds it — see kvStore.
type partDigest struct {
	Partition hashspace.Partition
	Count     int
	Sum       uint64
}

// replProbeReq is one anti-entropy exchange with one replica host: the
// digests of every partition the primary places there, in one message per
// host per pass.  The replica answers with the partitions whose buckets do
// not match (missing ones included).
type replProbeReq struct {
	Op      uint64
	Digests []partDigest
}

type replProbeResp struct {
	Op        uint64
	OutOfSync []hashspace.Partition
}

func (m replProbeResp) replyOp() uint64  { return m.Op }
func (m replProbeResp) replyErr() string { return "" }

// replSyncReq overwrites a replica bucket with the primary's full copy —
// the repair step after a probe mismatch, and the re-homing push after a
// partition transfer.
type replSyncReq struct {
	Op        uint64
	Partition hashspace.Partition
	Data      map[string][]byte
	Ver       uint64
	Group     core.GroupID
}

// replDropMsg tells a host to discard replica buckets it no longer backs
// (fire-and-forget; a missed drop is garbage, not corruption).
type replDropMsg struct {
	Partitions []hashspace.Partition
}

// overlapping reports whether two binary-trie partitions intersect, i.e.
// one is an ancestor of (or equal to) the other.
func overlapping(a, b hashspace.Partition) bool {
	if a.Level > b.Level {
		a, b = b, a
	}
	return b.Prefix>>(b.Level-a.Level) == a.Prefix
}

// replicaHostsLocked picks the R−1 replica hosts for a partition owned at
// this snode.  The result is shared with the placement cache: callers
// must not modify it.  Caller holds s.mu.
func (s *Snode) replicaHostsLocked(p hashspace.Partition) []transport.NodeID {
	if ref, ok := s.owned[p]; ok {
		return s.ownedReplicasLocked(p, ref)
	}
	return replicaHostsFor(p, s.id, s.view, s.cfg.Replicas)
}

// ownedReplicasLocked is replicaHostsLocked for a caller that already
// holds p's ownership entry — the batch path, once per bucket per batch.
// Placement is a pure function of (partition, primary, view), so it is
// computed once per view epoch and cached in the entry, which a refresh
// writes back; a split or an install makes new entries, which start with
// an empty cache.  Caller holds s.mu.
func (s *Snode) ownedReplicasLocked(p hashspace.Partition, ref ownedRef) []transport.NodeID {
	if s.cfg.Replicas <= 1 {
		return nil
	}
	if ref.repsAt != s.viewEpoch+1 {
		ref.reps = replicaHostsFor(p, s.id, s.view, s.cfg.Replicas)
		ref.repsAt = s.viewEpoch + 1
		s.owned[p] = ref
	}
	return ref.reps
}

// replicaHostsFor is the pure placement rule: rendezvous (HRW) hashing.
// Every (partition, host) pair gets a 64-bit score and the R−1
// highest-scoring non-primary hosts win, ties broken by the lower id.
// Removing a host only promotes the next-ranked host into the sets the
// dead host was in, and adding a host only displaces the sets it now
// out-scores — each membership change moves ~1/n of the replica sets
// instead of reshuffling most of them (as the old modular-offset rule
// did).
func replicaHostsFor(p hashspace.Partition, primary transport.NodeID, view []transport.NodeID, r int) []transport.NodeID {
	if r <= 1 {
		return nil
	}
	// One pass keeping the best R−1 seen so far in rank order: R is a
	// handful, so the insertion is a few compares — no candidate slice to
	// build and sort per call.
	n := r - 1
	var out []transport.NodeID
	var wbuf [8]uint64
	ws := wbuf[:0] // ws[i] is out[i]'s score
	for _, id := range view {
		if id == primary {
			continue
		}
		w := hrwScore(p, id)
		i := len(out)
		for i > 0 && (w > ws[i-1] || (w == ws[i-1] && id < out[i-1])) {
			i--
		}
		if i == n {
			continue
		}
		if len(out) < n {
			out = append(out, 0)
			ws = append(ws, 0)
		}
		copy(out[i+1:], out[i:])
		copy(ws[i+1:], ws[i:])
		out[i], ws[i] = id, w
	}
	return out
}

// hrwScore is the rendezvous weight of one (partition, host) pair: a
// SplitMix64-style finalizer over the partition identity mixed with the
// host id.  Pure and stable — every snode computes the same ranking.
func hrwScore(p hashspace.Partition, id transport.NodeID) uint64 {
	x := p.Prefix*0x9e3779b97f4a7c15 ^ uint64(p.Level)<<56 ^ uint64(id)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- replica store maintenance (caller holds s.mu) ---

// replicaBucket is one partition this snode backs for another primary.
type replicaBucket struct {
	kv *kvStore
	// provisional marks a write-created bucket that was never full-synced:
	// present keys are real, absent keys are unknown.
	provisional bool
	// meta is nil until a primary told this bucket its metadata (GroupID's
	// zero value is the valid group 0, so absence needs its own mark).
	meta *replMeta
}

// replMeta is the volatile failover metadata of one replica bucket: the
// highest primary write version seen, the owning vnode's group, and the
// primary host that last fed the bucket.  Not journaled, not snapshotted
// — see the file header.
type replMeta struct {
	ver   uint64
	group core.GroupID
	prim  transport.NodeID
}

// noteReplMetaLocked folds fresh metadata into a replica bucket's record.
// The version only ratchets up, so a reordered stale fan-out cannot
// regress the election priority.  Caller holds s.mu.
func (s *Snode) noteReplMetaLocked(p hashspace.Partition, ver uint64, g core.GroupID, prim transport.NodeID) {
	b, ok := s.rparts[p]
	if !ok {
		return
	}
	if b.meta == nil {
		b.meta = &replMeta{}
	}
	if ver > b.meta.ver {
		b.meta.ver = ver
	}
	b.meta.group = g
	b.meta.prim = prim
}

// dropReplicaWithinLocked discards every replica bucket contained in p
// (p itself included).  Ancestors are deliberately spared: they may still
// carry the only failover copy of a *sibling* region's acknowledged keys,
// and their own primary's
// placement pass retires them once the current-level buckets are synced.
func (s *Snode) dropReplicaWithinLocked(p hashspace.Partition) {
	for q := range s.rparts {
		if q.Level >= p.Level && overlapping(q, p) {
			delete(s.rparts, q)
		}
	}
}

// --- replica-side handlers (fast: no nested RPCs, run inline) ---

func (s *Snode) handleViewUpdate(m viewUpdate) {
	s.mu.Lock()
	if m.Epoch > s.viewEpoch {
		s.viewEpoch = m.Epoch
		s.view = m.Snodes
	}
	s.mu.Unlock()
}

func (s *Snode) handleReplWrite(m replWriteReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "repl.write")
	rec := walReplWriteRec{Kind: m.Kind, Sets: m.Sets}
	var applied int64
	s.mu.Lock()
	rec.applyLocked(s)
	for _, set := range m.Sets {
		s.noteReplMetaLocked(set.Partition, set.Ver, set.Group, from)
		applied += int64(len(set.Items))
	}
	seq := s.journal(rec.walTag(), rec.fields)
	s.mu.Unlock()
	s.stats.ReplWrites.Add(applied)
	s.ackDurable(from, m.Op, seq, "replica write", sp)
}

// handleReplProbe compares the stored digests of the probed partitions
// with the primary's — a few memory reads per partition under s.mu, no
// data touched.
func (s *Snode) handleReplProbe(m replProbeReq, from transport.NodeID) {
	resp := replProbeResp{Op: m.Op}
	s.mu.Lock()
	for _, d := range m.Digests {
		if b, ok := s.rparts[d.Partition]; ok {
			if n, sum := b.kv.digest(); n == d.Count && sum == d.Sum {
				// Digest equality with the primary proves the bucket
				// complete: a write-created (provisional) bucket becomes
				// authoritative here.
				b.provisional = false
				continue
			}
		}
		resp.OutOfSync = append(resp.OutOfSync, d.Partition)
	}
	s.mu.Unlock()
	s.send(from, untraced, resp)
}

func (s *Snode) handleReplSync(m replSyncReq, from transport.NodeID) {
	// The one place anti-entropy hashes data: a repaired bucket arrives
	// whole and its digest is rebuilt from its contents, before s.mu.
	rec := walReplSyncRec{Partition: m.Partition, Data: newStore(m.Data)}
	s.stats.AEKeysHashed.Add(int64(rec.Data.len()))
	s.mu.Lock()
	rec.applyLocked(s)
	s.noteReplMetaLocked(m.Partition, m.Ver, m.Group, from)
	seq := s.journal(rec.walTag(), rec.fields)
	s.mu.Unlock()
	s.ackDurable(from, m.Op, seq, "replica sync", activeSpan{})
}

// --- primary-side fan-out ---

// replFanMeta is the per-partition failover metadata a primary piggybacks
// on its replica fan-out: the bucket's post-apply write version and the
// owning vnode's group.
type replFanMeta struct {
	ver   uint64
	group core.GroupID
}

// replicate synchronously applies a write set to its replica hosts, one
// replWriteReq per destination host (carrying every affected partition's
// items placed there), all in parallel.  An unreachable replica is
// recorded and skipped (the primary holds the data and anti-entropy
// repairs the replica later); an error is returned only when this snode is
// stopping, in which case the write must NOT be acknowledged — the
// primary's copy dies with it.
func (s *Snode) replicate(kind dataOp, writes map[hashspace.Partition][]batchItem, dests map[hashspace.Partition][]transport.NodeID, meta map[hashspace.Partition]replFanMeta, tr transport.TraceContext) error {
	byHost := make(map[transport.NodeID][]replWriteSet)
	for p, items := range writes {
		for _, host := range dests[p] {
			byHost[host] = append(byHost[host], replWriteSet{
				Partition: p, Items: items,
				Ver: meta[p].ver, Group: meta[p].group,
			})
		}
	}
	hosts := make([]transport.NodeID, 0, len(byHost))
	for host := range byHost {
		hosts = append(hosts, host)
	}
	var stopping error
	for _, err := range fanOut(len(hosts), func(i int) error {
		// The send (not the wait) is serialized per destination so a
		// concurrent full sync cannot be overtaken by a write it does not
		// contain (see syncReplica).
		fsp := beginSpan(tr, "repl.fanout")
		_, err := askOrdered[ackResp](&s.endpoint, hosts[i], fsp.ctx, func(op uint64) transport.WireMessage {
			return replWriteReq{Op: op, Kind: kind, Sets: byHost[hosts[i]]}
		})
		s.tracer.finishErr(fsp, s.id, err)
		return err
	}) {
		if err != nil {
			select {
			case <-s.stopCh:
				stopping = err
			default:
				s.stats.ReplLagged.Add(1)
			}
		}
	}
	return stopping
}

// syncReplica ships the current bucket of an owned partition to one
// replica host and waits for the ack.  The destination's send mutex is
// held from before the snapshot copy until after the send, and every
// replica write to that destination sends under the same mutex: a write
// applied after the copy is therefore sent after the sync, so FIFO
// delivery guarantees the full sync can never overwrite a newer
// replicated write at the replica.  s.mu itself is released before the
// send — a slow destination stalls only its own replica traffic, never
// the data plane.  ok is false when the partition is no longer owned
// here — or is frozen mid-handover: the commit may already be on the
// wire, and a bucket shipped behind it strands a replica copy where no
// placement pass will look for it (at the receiver itself, when the
// receiver was this partition's replica host).  The new owner re-homes
// the replicas; an aborted handover thaws and the next pass retries.
func (s *Snode) syncReplica(p hashspace.Partition, host transport.NodeID) (ok bool, err error) {
	_, err = askOrdered[ackResp](&s.endpoint, host, untraced, func(op uint64) transport.WireMessage {
		s.mu.Lock()
		vs, p2, owned := s.ownsLocked(p.Start())
		var bk *bucket
		var g core.GroupID
		if owned && p2 == p {
			bk = vs.parts[p]
			g = vs.group
		}
		s.mu.Unlock()
		if bk == nil {
			return nil
		}
		bk.mu.RLock()
		defer bk.mu.RUnlock()
		if bk.state != bucketLive {
			return nil
		}
		ok = true
		return replSyncReq{Op: op, Partition: p, Data: copyBucket(bk.kv.m), Ver: bk.ver, Group: g}
	})
	if !ok {
		return false, nil
	}
	if err != nil {
		return true, fmt.Errorf("cluster: replica sync at %d: %w", host, err)
	}
	return true, nil
}

// rehomeReplicas pushes full replica buckets for a freshly installed
// partition to its (new) replica hosts, before the install is
// acknowledged, so the transfer never shrinks the number of copies.
// Best-effort: an unreachable replica host is left to anti-entropy.
func (s *Snode) rehomeReplicas(p hashspace.Partition) {
	s.mu.Lock()
	hosts := s.replicaHostsLocked(p)
	if len(hosts) > 0 {
		s.placed[p] = hosts
	}
	s.mu.Unlock()
	for _, err := range fanOut(len(hosts), func(i int) error {
		_, err := s.syncReplica(p, hosts[i])
		return err
	}) {
		if err != nil {
			s.stats.ReplLagged.Add(1)
		}
	}
}

// dropOrphanReplicas tells the hosts that replicated p for this (old)
// primary to discard their buckets, sparing any host the new primary's
// placement still uses.  Fire-and-forget.
func (s *Snode) dropOrphanReplicas(p hashspace.Partition, newPrimary transport.NodeID) {
	if s.cfg.Replicas <= 1 {
		return
	}
	if newPrimary == s.id {
		// Intra-snode transfer (vnode to vnode on this host): the
		// placement is a function of (partition, host, view) and the host
		// did not change, so there is nothing to drop — and the `placed`
		// record was just refreshed by the receiving vnode's install;
		// deleting it here would orphan the old replica on the next view
		// change.
		return
	}
	s.mu.Lock()
	old, tracked := s.placed[p]
	if !tracked {
		old = s.replicaHostsLocked(p)
	}
	delete(s.placed, p)
	keep := make(map[transport.NodeID]bool)
	for _, h := range replicaHostsFor(p, newPrimary, s.view, s.cfg.Replicas) {
		keep[h] = true
	}
	s.mu.Unlock()
	for _, host := range old {
		if !keep[host] && host != newPrimary {
			s.send(host, untraced, replDropMsg{Partitions: []hashspace.Partition{p}})
		}
	}
}

// --- anti-entropy ---

// antiEntropyLoop periodically reconciles every owned partition with its
// replica hosts.  Started by newSnode when replication is on.
func (s *Snode) antiEntropyLoop() {
	t := time.NewTicker(s.cfg.AntiEntropyInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			t0 := time.Now()
			s.antiEntropyPass()
			s.lat.aePass.ObserveSince(t0)
			s.sweepStaleReplicas()
		}
	}
}

// sweepStaleReplicas retires replica buckets whose region has provably
// moved to a deeper splitlevel.  Candidates are ancestors overlapped by a
// deeper bucket at this host (the overlap proves the region is live and
// locally reachable, so the validating lookup resolves fast); the routed
// lookup makes the verdict exact — a region that still resolves at the
// candidate's own level, or does not resolve at all (its primary may be
// dead and this bucket its failover copy), is kept.
func (s *Snode) sweepStaleReplicas() {
	s.mu.Lock()
	var cands []hashspace.Partition
	for q := range s.rparts {
		for q2 := range s.rparts {
			if q2.Level > q.Level && overlapping(q, q2) {
				cands = append(cands, q)
				break
			}
		}
	}
	s.mu.Unlock()
	for _, q := range cands {
		select {
		case <-s.stopCh:
			return
		default:
		}
		lr, err := s.resolveOwner(q.Start())
		if err != nil {
			continue
		}
		if lr.Partition.Level > q.Level {
			s.mutate(&replDropMsg{Partitions: []hashspace.Partition{q}})
		}
	}
}

// antiEntropyPass sends each replica host the digests of the owned
// partitions placed there and ships a full bucket for every one the host
// reports out of sync.  Digests are maintained by the stores, so a quiet
// pass reads O(partitions) words, sends one probe per replica host and
// hashes nothing, whatever the store size; only a repair costs O(bucket).
// Divergence shows up after crashes (a replica host died and placement
// moved), membership changes (a new view re-homes replica sets) and
// partition splits (the children need buckets at the new level).  The
// pass also reconciles *placement*: hosts that dropped out of a
// partition's replica set since the last pass are told to discard their
// now-orphaned buckets.
func (s *Snode) antiEntropyPass() {
	// Snapshot the current placement and the live buckets under one s.mu
	// pass (no bookkeeping mutation yet — placement advances only for
	// partitions whose replica set is confirmed below).
	s.mu.Lock()
	cur := make(map[hashspace.Partition][]transport.NodeID)
	live := make(map[hashspace.Partition]*bucket)
	for p, ref := range s.owned {
		// Frozen (mid-transfer) partitions and partitions of a vnode whose
		// join has not completed stay in the snapshot so their placement
		// record is not mistaken for a handover (which would delete it and
		// orphan the old replica's bucket forever), but they are neither
		// probed nor advanced this pass.
		cur[p] = s.ownedReplicasLocked(p, ref)
		ref.bk.mu.RLock()
		if ref.vs.joined && ref.bk.state == bucketLive && len(cur[p]) > 0 {
			live[p] = ref.bk
		}
		ref.bk.mu.RUnlock()
	}
	s.mu.Unlock()

	// One probe per replica host.  The digests are read right before each
	// send, under the buckets' own locks, so a slow repair at one host does
	// not age what the next host is compared against.  synced[p] ends up
	// recording that every host of p's placement holds a confirmed
	// up-to-date bucket.
	byHost := make(map[transport.NodeID][]hashspace.Partition)
	synced := make(map[hashspace.Partition]bool, len(live))
	for p := range live {
		synced[p] = true
		for _, host := range cur[p] {
			byHost[host] = append(byHost[host], p)
		}
	}
	for host, parts := range byHost {
		select {
		case <-s.stopCh:
			return
		default:
		}
		digests := make([]partDigest, 0, len(parts))
		for _, p := range parts {
			bk := live[p]
			bk.mu.RLock()
			if bk.state != bucketLive {
				bk.mu.RUnlock()
				synced[p] = false // moved, split or frozen since the snapshot; reconciled next pass
				continue
			}
			n, sum := bk.kv.digest()
			bk.mu.RUnlock()
			digests = append(digests, partDigest{Partition: p, Count: n, Sum: sum})
		}
		if len(digests) == 0 {
			continue
		}
		s.stats.AEProbeMsgs.Add(1)
		probe, err := ask[replProbeResp](&s.endpoint, host, untraced, func(op uint64) transport.WireMessage {
			return replProbeReq{Op: op, Digests: digests}
		})
		if err != nil {
			s.stats.ReplLagged.Add(1)
			for _, p := range parts {
				synced[p] = false
			}
			continue
		}
		for _, p := range probe.OutOfSync {
			switch stillOwned, serr := s.syncReplica(p, host); {
			case !stillOwned:
				synced[p] = false
			case serr != nil:
				synced[p] = false
				s.stats.ReplLagged.Add(1)
			default:
				s.stats.ReplRepairs.Add(1)
			}
		}
	}

	// Retire stale buckets only now, and only where the replacement set
	// is confirmed: dropping before (or despite a failed) sync would open
	// a window with the old copy gone and the new one not shipped, where
	// a primary crash violates the R-copy guarantee.  Unconfirmed
	// partitions keep their old `placed` record, so the move is retried —
	// and the old copies retained — on the next pass.
	drops := make(map[transport.NodeID][]hashspace.Partition)
	s.mu.Lock()
	for p, hosts := range cur {
		if !synced[p] {
			continue
		}
		inSet := make(map[transport.NodeID]bool, len(hosts))
		for _, h := range hosts {
			inSet[h] = true
		}
		for _, old := range s.placed[p] {
			if !inSet[old] {
				drops[old] = append(drops[old], p)
			}
		}
		s.placed[p] = hosts
	}
	// Partitions that vanished from the owned set since the last pass
	// split into children (handovers clean up their own bookkeeping in
	// dropOrphanReplicas): once every child's replica set is confirmed,
	// the parent-level buckets recorded for the old placement are pure
	// leftovers and can go.
	for p, hosts := range s.placed {
		if _, owned := cur[p]; owned {
			continue
		}
		// cur is a pass-START snapshot and this pass spent real time in
		// probe/sync RPCs: a partition installed meanwhile is absent from
		// cur yet owned right now, and its `placed` record — just written
		// by the install's re-homing — must survive, or its old replica
		// host is never told to drop.  Re-validate against the live
		// ownership index before treating the record as a leftover.
		if _, p2, ok := s.ownedForLocked(p.Start()); ok && p2 == p {
			continue
		}
		covered, hasChild := true, false
		for q := range cur {
			if q.Level > p.Level && overlapping(p, q) {
				hasChild = true
				if !synced[q] {
					covered = false
					break
				}
			}
		}
		if hasChild && covered {
			for _, h := range hosts {
				drops[h] = append(drops[h], p)
			}
			delete(s.placed, p)
		} else if !hasChild {
			delete(s.placed, p) // handed over; the new primary tracks it now
		}
	}
	s.mu.Unlock()
	for host, ps := range drops {
		s.send(host, untraced, replDropMsg{Partitions: ps})
	}
}

// replicaPartitions lists the partitions this snode currently backs as a
// replica, sorted — introspection for tests and status.
func (s *Snode) replicaPartitions() []hashspace.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]hashspace.Partition, 0, len(s.rparts))
	for p := range s.rparts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out
}
