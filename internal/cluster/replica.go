package cluster

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// R-way partition replication.  The paper's model is failure-free (§5);
// this file grows the runtime beyond it: every partition's primary (the
// owning vnode's host) keeps R−1 *replica copies* on other snodes, so an
// abrupt snode crash loses no acknowledged write.  One rule holds the
// copies together: a copy exists only whole, and a replica set changes
// only by hand-off.
//
//   - A copy is born whole: from a full sync of the primary's bucket, or
//     by splitting in place an ancestor copy fed by the same primary.  A
//     host acks a write set for a partition it does not hold, and stores
//     nothing.
//   - A write is acknowledged once its partition's *fan-out set* answered
//     (an unreachable host is counted in ReplLagged and left to
//     anti-entropy): the targets (placement, below) plus `placed`, the
//     hosts that may hold a copy.  For a partition no live host holds a
//     copy of (a seed), each target is then probed by digest and sent the
//     whole bucket if its copy is missing or different.  A split gives
//     each child its parent's `placed`.
//   - Anti-entropy probes each target with the maintained digests of
//     every owned partition (store.go), full-syncs every missing or
//     differing copy, and once a partition's targets are all confirmed,
//     drops the copies at its other hosts: until then they keep being
//     fed, so a crash at any moment leaves a whole copy.  A transfer
//     re-homes the set with the primary (the new owner syncs its targets
//     before acknowledging the install; the old one drops the orphans).
//
// Placement is the ring of the sorted view: a primary's targets are the
// R−1 snodes that follow it, wrapping round, whatever the partition, so
// every snode with the same view agrees, one batch sends one replica
// write per target, and each snode backs exactly R−1 primaries.  Fixed
// successors also bound the copysets (Cidon et al., USENIX ATC 2013): at
// R=2 two crashes orphan partitions only when one snode is the other's
// successor.  The price is failover: a dead snode's partitions are all
// promoted on its successor.  Replicas serve no reads: a read goes where
// a write goes, to the primary (chain replication's rule, van Renesse &
// Schneider, OSDI 2004), and fails until a promoted copy is announced.
//
// Each copy carries volatile failover metadata (see replicaBucket) that
// failover.go elects on.  A partition's write version never goes
// backwards — split children and a transfer's install start at their
// source's — so versions compare across the copies of one region.  A
// restarted replica cannot vote until its primary feeds it again.  Two
// *concurrent* writes of the same key may replicate in the opposite order
// from the primary's apply order (racing callers have no ordering at the
// primary either); anti-entropy re-converges the copy within one interval.

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
// as its primary holds it — see kvStore — and the owning vnode's group,
// which a matching copy adopts with the prober as its primary.
type partDigest struct {
	Partition hashspace.Partition
	Count     int
	Sum       uint64
	Group     core.GroupID
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

// fanoutLocked is where a write of owned partition p goes: this snode's
// targets plus the live hosts of p's `placed` set that anti-entropy has
// not dropped yet.  The result may be s.targets itself: callers must not
// modify it.  Caller holds s.mu.
func (s *Snode) fanoutLocked(p hashspace.Partition) []transport.NodeID {
	hosts := s.targets
	for _, h := range s.placed[p] {
		if slices.Contains(s.view, h) && !slices.Contains(hosts, h) {
			hosts = append(slices.Clip(hosts), h)
		}
	}
	return hosts
}

// setPlacedLocked records hosts (nil: none) as the hosts that may hold a
// copy of owned partition p.  Caller holds s.mu.
func (s *Snode) setPlacedLocked(p hashspace.Partition, hosts []transport.NodeID) {
	if len(hosts) == 0 {
		delete(s.placed, p)
	} else {
		s.placed[p] = hosts
	}
}

// replicaHostsFor is the pure placement rule: the targets of primary are
// the R−1 hosts that follow it in the sorted view, wrapping round (fewer
// when the view holds fewer other hosts).  A primary absent from the view
// takes the successors of the place it would sort into.  Adding a host
// changes only its own targets and those of its R−1 predecessors;
// removing one changes only the sets that contained it.
func replicaHostsFor(primary transport.NodeID, view []transport.NodeID, r int) []transport.NodeID {
	i, found := slices.BinarySearch(view, primary)
	n := len(view)
	if found {
		n--
	}
	if n = min(r-1, n); n <= 0 {
		return nil
	}
	out := make([]transport.NodeID, 0, n)
	for ; len(out) < n; i++ {
		if h := view[i%len(view)]; h != primary {
			out = append(out, h)
		}
	}
	return out
}

// --- replica store maintenance (caller holds s.mu) ---

// replicaBucket is one partition's whole copy, backed for another
// primary, with its volatile failover metadata: the highest primary write
// version seen, the owning vnode's group, and the primary host that last
// fed it (0 until one did: snode ids start at 1).  The metadata is not
// journaled — see the file header.  The replica store never holds two
// overlapping partitions.
type replicaBucket struct {
	kv    *kvStore
	ver   uint64
	group core.GroupID
	prim  transport.NodeID
}

// noteReplMetaLocked folds fresh metadata into a replica bucket's record.
// The version only ratchets up, so a reordered stale fan-out cannot
// regress the election priority.  Caller holds s.mu.
func (s *Snode) noteReplMetaLocked(p hashspace.Partition, ver uint64, g core.GroupID, prim transport.NodeID) {
	if b, ok := s.rparts[p]; ok {
		b.ver, b.group, b.prim = max(b.ver, ver), g, prim
	}
}

// replicaAboveLocked returns the held replica bucket strictly covering p,
// if any.  Caller holds s.mu.
func (s *Snode) replicaAboveLocked(p hashspace.Partition) (hashspace.Partition, *replicaBucket, bool) {
	for l := int(p.Level) - 1; l >= 0; l-- {
		a := hashspace.Containing(p.Start(), uint8(l))
		if b, ok := s.rparts[a]; ok {
			return a, b, true
		}
	}
	return hashspace.Partition{}, nil, false
}

// splitReplicaDownLocked splits the replica bucket covering p from above
// in place, one level at a time along p's path, until p is a bucket of
// its own; the halves off the path keep their level.  Each half keeps its
// parent's metadata, so it votes with the parent's version.  No-op when
// nothing covers p from above.  Caller holds s.mu.
func (s *Snode) splitReplicaDownLocked(p hashspace.Partition) {
	a, b, ok := s.replicaAboveLocked(p)
	for ok && a.Level < p.Level {
		lo, hi := a.Split()
		loB, hiB := *b, *b
		loB.kv, hiB.kv = splitStore(a, b.kv)
		delete(s.rparts, a)
		s.rparts[lo], s.rparts[hi] = &loB, &hiB
		a = hashspace.Containing(p.Start(), a.Level+1)
		b = s.rparts[a]
	}
}

// holdFedLocked reports whether this snode holds a copy of p for from's
// writes.  Without p's own bucket, a copy of an ancestor that from fed is
// split down to p: from split that ancestor itself, so its share of p is
// p's whole copy.  The split is journaled on its own, because replay
// cannot see the metadata that decided it.  Caller holds s.mu.
func (s *Snode) holdFedLocked(p hashspace.Partition, from transport.NodeID) bool {
	if _, ok := s.rparts[p]; ok {
		return true
	}
	_, b, ok := s.replicaAboveLocked(p)
	if !ok || b.prim != from {
		return false
	}
	rec := walReplSplitRec{Partition: p}
	rec.applyLocked(s)
	s.journal(rec.walTag(), rec.fields)
	return true
}

// dropReplicaLocked discards the copy of p — told by a primary, or before
// a sync or an install of p replaces it: an ancestor copy is split down
// to p first, so the rest of it survives, and every copy within p goes.
// Caller holds s.mu.
func (s *Snode) dropReplicaLocked(p hashspace.Partition) {
	s.splitReplicaDownLocked(p)
	for q := range s.rparts {
		if q.Level >= p.Level && q.Overlaps(p) {
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
		s.targets = replicaHostsFor(s.id, m.Snodes, s.cfg.Replicas)
	}
	s.mu.Unlock()
}

// handleReplWrite applies the write sets of the copies this snode holds
// for the sender and journals them; a set whose copy is not here is
// acknowledged and dropped, since a copy is only ever born whole.
func (s *Snode) handleReplWrite(m replWriteReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "repl.write")
	rec := walReplWriteRec{Kind: m.Kind, Sets: m.Sets[:0]}
	var applied int64
	s.mu.Lock()
	for _, set := range m.Sets {
		if s.holdFedLocked(set.Partition, from) {
			rec.Sets = append(rec.Sets, set)
		}
	}
	if len(rec.Sets) == 0 {
		s.mu.Unlock()
		s.tracer.finish(sp, s.id, "")
		s.send(from, untraced, ackResp{Op: m.Op})
		return
	}
	rec.applyLocked(s)
	for _, set := range rec.Sets {
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
// data touched.  A matching copy adopts the prober as its primary and
// the probe's group: a copy replayed from the journal knows neither, and
// could not stand for its primary in an election without them.
func (s *Snode) handleReplProbe(m replProbeReq, from transport.NodeID) {
	resp := replProbeResp{Op: m.Op}
	s.mu.Lock()
	for _, d := range m.Digests {
		if s.holdFedLocked(d.Partition, from) {
			if n, sum := s.rparts[d.Partition].kv.digest(); n == d.Count && sum == d.Sum {
				s.noteReplMetaLocked(d.Partition, 0, d.Group, from)
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

// placedLiveLocked reports whether some live host may hold a copy of
// owned partition p.  Caller holds s.mu.
func (s *Snode) placedLiveLocked(p hashspace.Partition) bool {
	return slices.ContainsFunc(s.placed[p], func(h transport.NodeID) bool { return slices.Contains(s.view, h) })
}

// replShare is one written bucket's share of a batch's replica fan-out:
// its write set, the hosts of its fan-out set, and whether it is a seed.
type replShare struct {
	set   replWriteSet
	hosts []transport.NodeID
	seed  bool
}

// replicate synchronously applies a batch's writes at their fan-out sets:
// one replWriteReq per destination host (carrying every affected
// partition's items placed there), all in parallel.  A seed — a written
// partition no live host may hold a copy of (a fresh bootstrap, the first
// write after a restart) — is then reconciled at each host: a copy
// replayed from its journal is confirmed, a missing one shipped.  An
// unreachable host is recorded and skipped (the primary holds the data
// and anti-entropy repairs the copy later); an error is returned only
// when this snode is stopping, in which case the write must NOT be
// acknowledged — the primary's copy dies with it.
func (s *Snode) replicate(kind dataOp, shares []replShare, tr transport.TraceContext) error {
	byHost := make(map[transport.NodeID][]replWriteSet)
	seeds := make(map[transport.NodeID][]hashspace.Partition)
	for _, sh := range shares {
		for _, host := range sh.hosts {
			byHost[host] = append(byHost[host], sh.set)
			if sh.seed {
				seeds[host] = append(seeds[host], sh.set.Partition)
			}
		}
	}
	var parts []func() error
	for host, sets := range byHost {
		parts = append(parts, func() error {
			// The send (not the wait) is serialized per destination so a
			// concurrent full sync cannot be overtaken by a write it does
			// not contain (see syncReplica).
			fsp := beginSpan(tr, "repl.fanout")
			_, err := askOrdered[ackResp](&s.endpoint, host, fsp.ctx, func(op uint64) transport.WireMessage {
				return replWriteReq{Op: op, Kind: kind, Sets: sets}
			})
			s.tracer.finishErr(fsp, s.id, err)
			if err != nil || len(seeds[host]) == 0 {
				return s.lagged(err)
			}
			// The probe follows the write set: a copy that matches holds it.
			_, err = s.reconcile(host, seeds[host])
			return err
		})
	}
	return firstErr(fanOut(len(parts), func(i int) error { return parts[i]() }))
}

// lagged counts a failed replica exchange (err non-nil) in ReplLagged,
// unless this snode is stopping: then it returns err, and the write it
// carried must not be acknowledged.
func (s *Snode) lagged(err error) error {
	if err == nil {
		return nil
	}
	select {
	case <-s.stopCh:
		return err
	default:
		s.stats.ReplLagged.Add(1)
		return nil
	}
}

// reconcile probes host with the digests of the owned partitions ps, in
// one message, and full-syncs each one it reports missing or different;
// it returns those confirmed whole at host, which join their `placed`.
// A partition no longer owned here, not live or moving out is skipped: a
// move's receiver holds a copy no probe may repair.  Errors are
// as replicate's.
func (s *Snode) reconcile(host transport.NodeID, ps []hashspace.Partition) ([]hashspace.Partition, error) {
	digests := make([]partDigest, 0, len(ps))
	s.mu.Lock()
	for _, p := range ps {
		if ref, owned := s.owned[p]; owned {
			ref.bk.mu.RLock()
			if ref.bk.state == bucketLive && ref.bk.dirty == nil {
				n, sum := ref.bk.kv.digest()
				digests = append(digests, partDigest{Partition: p, Count: n, Sum: sum, Group: ref.vs.group})
			}
			ref.bk.mu.RUnlock()
		}
	}
	s.mu.Unlock()
	if len(digests) == 0 {
		return nil, nil
	}
	s.stats.AEProbeMsgs.Add(1)
	probe, err := ask[replProbeResp](&s.endpoint, host, untraced, func(op uint64) transport.WireMessage {
		return replProbeReq{Op: op, Digests: digests}
	})
	if err != nil {
		return nil, s.lagged(err)
	}
	var confirmed []hashspace.Partition
	for _, d := range digests {
		if !slices.Contains(probe.OutOfSync, d.Partition) {
			confirmed = append(confirmed, d.Partition)
			continue
		}
		switch _, stillOwned, serr := s.syncReplica(d.Partition, host); {
		case serr != nil:
			err = cmp.Or(err, s.lagged(serr))
		case stillOwned:
			s.stats.ReplRepairs.Add(1)
			confirmed = append(confirmed, d.Partition)
		}
	}
	s.mu.Lock()
	for _, p := range confirmed {
		if _, owned := s.owned[p]; owned && !slices.Contains(s.placed[p], host) {
			s.setPlacedLocked(p, append(slices.Clip(s.placed[p]), host))
		}
	}
	s.mu.Unlock()
	return confirmed, err
}

// syncReplica ships the current bucket of an owned partition to one
// replica host (or a move's receiver) and waits for the ack; it returns
// the number of keys shipped.  The destination's send mutex is
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
// The host joins p's `placed` set as the sync is sent (unless it is this
// snode, the receiver of a move between two of its vnodes): from then on
// it may hold a whole copy, so a split or a transfer of p while the sync
// is in flight still hands that copy off.
func (s *Snode) syncReplica(p hashspace.Partition, host transport.NodeID) (keys int, ok bool, err error) {
	_, err = askOrdered[ackResp](&s.endpoint, host, untraced, func(op uint64) transport.WireMessage {
		s.mu.Lock()
		ref, owned := s.owned[p]
		if !owned {
			s.mu.Unlock()
			return nil
		}
		ref.bk.mu.RLock()
		defer ref.bk.mu.RUnlock()
		ok = ref.bk.state == bucketLive
		if ok && host != s.id && !slices.Contains(s.placed[p], host) {
			s.setPlacedLocked(p, append(slices.Clip(s.placed[p]), host))
		}
		g := ref.vs.group
		s.mu.Unlock()
		if !ok {
			return nil
		}
		keys = ref.bk.kv.len()
		return replSyncReq{Op: op, Partition: p, Data: copyBucket(ref.bk.kv.m), Ver: ref.bk.ver, Group: g}
	})
	if !ok {
		return 0, false, nil
	}
	if err != nil {
		return keys, true, fmt.Errorf("cluster: replica sync at %d: %w", host, err)
	}
	return keys, true, nil
}

// rehomeReplicas pushes full replica buckets for a freshly installed or
// promoted partition to this snode's targets, before the install is
// acknowledged or announced, so the transfer never shrinks the number of
// copies.  Best-effort: an unreachable target is left to anti-entropy.
func (s *Snode) rehomeReplicas(p hashspace.Partition) {
	s.mu.Lock()
	hosts := s.targets
	s.mu.Unlock()
	fanOut(len(hosts), func(i int) error {
		_, _, err := s.syncReplica(p, hosts[i])
		return s.lagged(err)
	})
}

// dropOrphanReplicas forgets p's fan-out set at this (old) primary and
// tells its hosts to discard their copies, sparing the new primary and
// any host its placement still uses.  Fire-and-forget.
func (s *Snode) dropOrphanReplicas(p hashspace.Partition, newPrimary transport.NodeID) {
	if newPrimary == s.id {
		// An intra-snode transfer (vnode to vnode on this host) keeps p
		// here, so the placement and the fan-out set stay as they are.
		return
	}
	s.mu.Lock()
	old := append(slices.Clone(s.targets), s.placed[p]...)
	s.setPlacedLocked(p, nil)
	keep := replicaHostsFor(newPrimary, s.view, s.cfg.Replicas)
	s.mu.Unlock()
	slices.Sort(old)
	for _, host := range slices.Compact(old) {
		if !slices.Contains(keep, host) && host != newPrimary {
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
		}
	}
}

// antiEntropyPass sends each target the digests of every live owned
// partition and ships a full bucket for every one the host reports
// missing or out of sync.  Digests are maintained by the stores, so a
// quiet pass reads O(partitions) words, sends exactly one probe per
// target (R−1) and hashes nothing, whatever the store size; only a repair
// costs O(bucket).  Divergence shows up after crashes (a host died and the
// ring moved), membership changes (a new view moves targets), transfers
// and restarts.  The pass then completes the hand-off of every partition
// all targets confirmed: the other hosts of its fan-out set are told to
// drop their copies.
func (s *Snode) antiEntropyPass() {
	// Snapshot the targets and the live buckets under one s.mu pass.
	// Frozen (mid-transfer) partitions and partitions of a vnode whose join
	// has not completed are neither probed nor handed off this pass.
	s.mu.Lock()
	targets := s.targets
	if len(targets) == 0 {
		s.mu.Unlock()
		return
	}
	live := make(map[hashspace.Partition]*bucket)
	for p, ref := range s.owned {
		ref.bk.mu.RLock()
		if ref.vs.joined && ref.bk.state == bucketLive {
			live[p] = ref.bk
		}
		ref.bk.mu.RUnlock()
	}
	s.mu.Unlock()

	// One probe per target.  unconfirmed[p] counts the targets not
	// confirmed to hold an up-to-date copy of p: unreachable, or p moved,
	// split or froze since the snapshot.  They are reconciled next pass.
	ps := slices.Collect(maps.Keys(live))
	unconfirmed := make(map[hashspace.Partition]int, len(live))
	for _, p := range ps {
		unconfirmed[p] = len(targets)
	}
	for _, host := range targets {
		select {
		case <-s.stopCh:
			return
		default:
		}
		confirmed, _ := s.reconcile(host, ps)
		for _, p := range confirmed {
			unconfirmed[p]--
		}
	}

	// Hand off only now, and only where every target is confirmed:
	// dropping before (or despite a failed) sync would open a window with
	// the old copy gone and the new one not shipped, where a primary crash
	// loses acknowledged writes.  An unconfirmed partition keeps its
	// fan-out set, so its old copies stay fed and the hand-off is retried
	// next pass.  A partition split or handed over during the pass has
	// left the ownership index (its bucket is not the snapshot's).  A
	// partition moving out (claimed) is not probed, so not confirmed, nor
	// handed off if a move claimed it after its probe: either would drop
	// the copy the move's receiver is about to install.
	drops := make(map[transport.NodeID][]hashspace.Partition)
	s.mu.Lock()
	for p, bk := range live {
		if ref, owned := s.owned[p]; unconfirmed[p] > 0 || !owned || ref.bk != bk || bk.claimed() {
			continue
		}
		for _, old := range s.placed[p] {
			if !slices.Contains(targets, old) {
				drops[old] = append(drops[old], p)
			}
		}
		if !slices.Equal(s.placed[p], targets) {
			s.setPlacedLocked(p, targets)
		}
	}
	s.mu.Unlock()
	for host, ps := range drops {
		s.send(host, untraced, replDropMsg{Partitions: ps})
	}
}
