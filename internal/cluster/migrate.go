package cluster

import (
	"errors"
	"fmt"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Chunked live partition migration.  The original transfer path froze the
// whole bucket for the entire handover — snapshot, ship, ack — so a large
// partition under sustained writes could hold writers across the full
// transfer and, with an autonomous balancer migrating frequently, drive
// them into FreezeTimeout errors.  This file replaces it with an
// incremental protocol that keeps the bucket LIVE while its contents
// stream out in bounded chunks and freezes only for the final delta:
//
//  1. migBeginReq opens a staging bucket at the receiving snode.
//  2. The sender snapshots the key list, turns on dirty-key tracking in
//     the live bucket (writes keep landing locally and are recorded), and
//     streams the base contents as migChunkReq messages of bounded size.
//  3. Keys written during the stream are re-sent in delta rounds, still
//     live, until the dirty set is small or the round budget is spent.
//  4. Only then does the bucket freeze: migCommitReq carries the last
//     (small) delta, the receiver folds it into the staging bucket and
//     installs it as the live owned partition, and the sender retires its
//     copy behind a custody tombstone.  The freeze window is one small
//     message round-trip instead of a whole-bucket ship.
//
// Any failure aborts: the sender flips its bucket back to live (requeued
// writes proceed) and the receiver discards the staging bucket, so the
// partition stays owned by exactly one host.  The one ambiguous case is
// a commit whose ACK is lost after the receiver installed: the sender
// then probes the receiver with a lookup and completes the handover if
// the receiver answers as owner, aborting only when it provably does
// not own the region — reverting blindly would leave both sides
// serving.
//
// The handover is journaled in two phases (closing the crash window the
// durable layer used to document as a limitation): right before the
// commit RPC — while the bucket is frozen — the sender journals a
// *migration intent* (walTagMigIntent) and waits for it to be durable.
// On success the existing bucket-drop record doubles as the resolution;
// an abort journals walTagMigIntentResolved.  A sender that crashes
// anywhere between the intent and its resolution therefore replays into
// an *in-doubt* state: the bucket recovers FROZEN (reads serve, writes
// wait) and a resolver goroutine probes the receiver with a lookup —
// exactly the lost-ack probe — finalizing the drop if the receiver (or
// any third party, after a later handover) owns the region, reverting to
// live if the probe resolves back to this snode, and staying frozen
// while the receiver is unreachable (it may have durably committed, so a
// blind revert could resurrect a stale copy — the precise bug this
// protocol exists to prevent).
//

// migSender is the outbound side's tracking state, hung off the live
// bucket: the pointer and the dirty set inside are guarded by the
// bucket's mutex, exactly like the bucket's data map.
type migSender struct {
	// dirty records keys written (put or deleted) since their last chunk
	// was streamed; each delta round swaps it for a fresh map.
	dirty map[string]struct{}
}

// migIntent is one journaled, not-yet-resolved migration handover: the
// sending vnode and the destination the frozen bucket was committed
// towards.  Live entries exist only between the intent record and its
// resolution; recovery rebuilds the map from the journal and the
// resolver goroutine (resolveIntents) settles each entry by probing the
// receiver.
type migIntent struct {
	vnode    VnodeName
	newOwner ownerRef
}

// migInbound is one staging bucket at the receiving snode: contents
// accumulate here, invisible to the data plane, until the commit installs
// them as the live owned partition.
type migInbound struct {
	to    VnodeName
	group core.GroupID
	level uint8
	data  *kvStore
}

// migItem is one key of a migration chunk.  Del marks a deletion observed
// during the live stream (the staging bucket must forget the key).
type migItem struct {
	Key   string
	Value []byte
	Del   bool
}

// migBeginReq opens a staging bucket for a partition about to stream in.
type migBeginReq struct {
	Op        uint64
	Group     core.GroupID
	To        VnodeName
	Partition hashspace.Partition
	Level     uint8
}

// migChunkReq carries one bounded slice of the partition's contents (base
// snapshot or delta round) into the staging bucket.
type migChunkReq struct {
	Op        uint64
	To        VnodeName
	Partition hashspace.Partition
	Items     []migItem
}

// migCommitReq is the final, frozen-window delta: the receiver folds it in
// and installs the staging bucket as the live owned partition, starting
// at the sender's write version Ver.
type migCommitReq struct {
	Op        uint64
	To        VnodeName
	Partition hashspace.Partition
	Items     []migItem
	Ver       uint64
}

// migAbortMsg discards a staging bucket after a sender-side failure
// (fire-and-forget; a missed abort is bounded garbage, not corruption —
// a later begin for the same partition replaces the staging bucket).
type migAbortMsg struct {
	To        VnodeName
	Partition hashspace.Partition
}

// --- sender side ---

// collectDeltaLocked turns a dirty-key set into chunk items reflecting the
// bucket's current contents (absent key ⇒ deletion).  Caller holds the
// bucket's mutex (read or write).
func collectDeltaLocked(bk *bucket, dirty map[string]struct{}) []migItem {
	if len(dirty) == 0 {
		return nil
	}
	items := make([]migItem, 0, len(dirty))
	for k := range dirty {
		if v, ok := bk.kv.m[k]; ok {
			items = append(items, migItem{Key: k, Value: v})
		} else {
			items = append(items, migItem{Key: k, Del: true})
		}
	}
	return items
}

// sendChunk ships one chunk and waits for the ack.
func (s *Snode) sendChunk(toHost transport.NodeID, to VnodeName, p hashspace.Partition, items []migItem, tr transport.TraceContext) error {
	csp := beginSpan(tr, "mig.chunk")
	t0 := time.Now()
	_, err := ask[ackResp](&s.endpoint, toHost, csp.ctx, func(op uint64) transport.WireMessage {
		return migChunkReq{Op: op, To: to, Partition: p, Items: items}
	})
	s.lat.migChunk.ObserveSince(t0)
	s.tracer.finishErr(csp, s.id, err)
	if err != nil {
		return fmt.Errorf("cluster: migration chunk at %d: %w", toHost, err)
	}
	s.stats.ChunksSent.Add(1)
	return nil
}

// migratePartition streams one owned, live partition to its new owner and
// returns the number of key entries shipped.  The caller has claimed bk
// (bucket.claim).  On error the bucket is live again, unclaimed and still
// owned here; on success it is dead behind a custody tombstone and the
// receiver owns the partition.
func (s *Snode) migratePartition(g core.GroupID, to VnodeName, toHost transport.NodeID, p hashspace.Partition, level uint8, vs *vnodeState, bk *bucket) (int, error) {
	chunk := s.cfg.MigrationChunkKeys

	// Migrations originate at this snode, not at a client, so they draw
	// their own head-sampling decision; the whole handover becomes one
	// trace ("mig.partition" root, chunk and install children).
	root := beginSpan(s.sampler.next(), "mig.partition")

	moved := 0
	abort := func(err error) (int, error) {
		bk.mu.Lock()
		bk.mig = nil
		if bk.state == bucketFrozen {
			bk.state = bucketLive
		}
		bk.mu.Unlock()
		s.send(toHost, untraced, migAbortMsg{To: to, Partition: p})
		s.stats.MigAborts.Add(1)
		s.tracer.finish(root, s.id, err.Error())
		s.log.Warn("migration aborted", "partition", p, "to", int(toHost), "err", err)
		return moved, err
	}

	// Open the staging bucket before reading the bucket, so a dead or
	// refusing receiver costs nothing but the claim.  An abort drops a
	// staging bucket whose begin ack was lost.
	_, err := ask[ackResp](&s.endpoint, toHost, root.ctx, func(op uint64) transport.WireMessage {
		return migBeginReq{Op: op, Group: g, To: to, Partition: p, Level: level}
	})
	if err != nil {
		return abort(fmt.Errorf("cluster: migration begin at %d: %w", toHost, err))
	}

	// Snapshot the key list.  Dirty tracking has been on since the claim,
	// so every write either is in the key snapshot or lands in the dirty
	// set (or both — re-sent values are idempotent).
	bk.mu.Lock()
	if bk.state != bucketLive {
		bk.mu.Unlock()
		return abort(fmt.Errorf("cluster: partition %v not live for migration", p))
	}
	keys := make([]string, 0, len(bk.kv.m))
	for k := range bk.kv.m {
		keys = append(keys, k)
	}
	bk.mu.Unlock()

	// Base stream: bounded chunks read under the bucket's read lock, so
	// concurrent writes proceed between chunks.  A key deleted since the
	// snapshot is skipped here — the deletion is in the dirty set.
	for start := 0; start < len(keys); start += chunk {
		end := min(start+chunk, len(keys))
		items := make([]migItem, 0, end-start)
		bk.mu.RLock()
		for _, k := range keys[start:end] {
			if v, ok := bk.kv.m[k]; ok {
				items = append(items, migItem{Key: k, Value: v})
			}
		}
		bk.mu.RUnlock()
		if len(items) == 0 {
			continue
		}
		if err := s.sendChunk(toHost, to, p, items, root.ctx); err != nil {
			return abort(err)
		}
		moved += len(items)
	}

	// Delta rounds, still live: keys written during the stream are re-sent
	// until the dirty set fits the final frozen delta or the round budget
	// is spent (a write rate that outruns the stream indefinitely would
	// otherwise never converge — the final delta then pays a longer freeze,
	// bounded by the write rate times one round).
	for round := 0; round < migrationMaxDeltaRounds; round++ {
		bk.mu.Lock()
		if len(bk.mig.dirty) <= chunk {
			bk.mu.Unlock()
			break
		}
		dirty := bk.mig.dirty
		bk.mig.dirty = make(map[string]struct{})
		items := collectDeltaLocked(bk, dirty)
		bk.mu.Unlock()
		if err := s.sendChunk(toHost, to, p, items, root.ctx); err != nil {
			return abort(err)
		}
		moved += len(items)
	}

	// Freeze for the final delta only.  Writes arriving now requeue on the
	// batch path's frozen-deadline loop; the window is one commit
	// round-trip carrying at most one round of residual writes.
	//
	// Phase one of the two-phase handover: with the bucket frozen (no
	// write can land between the intent and the commit), journal the
	// migration intent and make it durable BEFORE the receiver is allowed
	// to commit.  From here to the resolution record, a crash replays
	// into the in-doubt state resolved by resolveIntents.
	intent := walMigIntentRec{Vnode: vs.name, Partition: p, NewOwner: ownerRef{Vnode: to, Host: toHost}}
	s.mu.Lock()
	bk.mu.Lock()
	bk.state = bucketFrozen
	final := collectDeltaLocked(bk, bk.mig.dirty)
	ver := bk.ver
	bk.mu.Unlock()
	intent.applyLocked(s)
	intentSeq := s.journal(intent.walTag(), intent.fields)
	s.mu.Unlock()
	abortResolved := func(err error) (int, error) {
		// The intent is on disk; journal its resolution so a later crash
		// does not replay into a needless in-doubt probe.
		s.mutate(&walMigIntentResolvedRec{Partition: p})
		return abort(err)
	}
	if !s.awaitDurable(intentSeq) {
		return abortResolved(fmt.Errorf("cluster: snode %d stopping: migration intent not durable", s.id))
	}
	if s.testCrashBeforeCommit != nil {
		if err := s.testCrashBeforeCommit(p); err != nil {
			return moved, err // simulated sender death: no abort, no cleanup
		}
	}

	csp := beginSpan(root.ctx, "mig.commit")
	_, err = ask[ackResp](&s.endpoint, toHost, csp.ctx, func(op uint64) transport.WireMessage {
		return migCommitReq{Op: op, To: to, Partition: p, Items: final, Ver: ver}
	})
	s.tracer.finishErr(csp, s.id, err)
	var refused remoteError
	if errors.As(err, &refused) {
		return abortResolved(fmt.Errorf("cluster: migration commit at %d: %w", toHost, err))
	}
	if err != nil {
		// The commit RPC failing does NOT mean the commit failed: the
		// receiver installs before acking (and re-homes replicas, which
		// can outlast the RPC timeout), so the install may have landed
		// with only its ack lost.  Blindly reverting to live would leave
		// BOTH snodes serving the partition.  Ask the receiver who owns
		// the region now and complete the handover if it answers as
		// owner; a redirect is a not-owning answer, and is not followed.
		// A probe error or a not-yet-owning answer is retried
		// with a pause: the commit handler runs in its own goroutine, so
		// a just-dispatched install may still be racing the (inline)
		// lookup.  Abort only when the receiver repeatedly answers as
		// NOT owning, or never answers at all (under the model's
		// no-partition assumption an unreachable receiver has crashed,
		// and a crashed receiver serves nobody, so reverting to live
		// cannot create a second server).
		for attempt := 0; attempt < 5; attempt++ {
			if attempt > 0 {
				time.Sleep(20 * time.Millisecond)
			}
			lr, lerr := ask[lookupResp](&s.endpoint, toHost, untraced, func(op uint64) transport.WireMessage {
				return lookupReq{Op: op, R: p.Start()}
			})
			if lerr == nil && lr.Owner == to && lr.Host == toHost && lr.Partition == p {
				err = nil
				break
			}
		}
		if err != nil {
			return abortResolved(err)
		}
	}
	moved += len(final)

	if s.testCrashAfterCommit != nil {
		if err := s.testCrashAfterCommit(p); err != nil {
			return moved, err // simulated sender death after receiver commit
		}
	}

	// Committed: retire the local copy behind a custody tombstone.  The
	// retirement is journaled (resolving the intent — tag 38 closes tag
	// 43) so a restart does not resurrect a partition that provably lives
	// elsewhere now.
	s.retireBucket(walBucketDropRec(intent), nil)
	s.stats.PartitionsSent.Add(1)
	s.stats.KeysMoved.Add(int64(moved))
	s.tracer.finish(root, s.id, "")
	s.log.Debug("partition migrated", "partition", p, "to", int(toHost), "keys", moved)
	return moved, nil
}

// --- receiver side ---

// applyMigItems folds chunk items into a staging store.
func applyMigItems(data *kvStore, items []migItem) {
	for _, it := range items {
		if it.Del {
			data.del(it.Key)
		} else {
			data.put(it.Key, it.Value)
		}
	}
}

// handleMigBegin opens (or replaces) the staging bucket for a partition.
// Runs inline: no nested RPCs.
func (s *Snode) handleMigBegin(m migBeginReq, from transport.NodeID) {
	s.mu.Lock()
	if _, ok := s.vnodes[m.To]; !ok {
		s.mu.Unlock()
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("vnode %v not allocated at %d", m.To, s.id)})
		return
	}
	s.migIn[m.Partition] = &migInbound{
		to: m.To, group: m.Group, level: m.Level,
		data: newStore(nil),
	}
	s.mu.Unlock()
	s.send(from, untraced, ackResp{Op: m.Op})
}

// handleMigChunk folds one chunk into the staging bucket.  Runs inline.
func (s *Snode) handleMigChunk(m migChunkReq, from transport.NodeID) {
	s.mu.Lock()
	st, ok := s.migIn[m.Partition]
	if !ok || st.to != m.To {
		s.mu.Unlock()
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("no migration staged for %v at %d", m.Partition, s.id)})
		return
	}
	applyMigItems(st.data, m.Items)
	s.mu.Unlock()
	s.send(from, untraced, ackResp{Op: m.Op})
}

// handleMigCommit applies the final delta and installs the staging bucket
// as the live owned partition — the successor of the retired
// whole-bucket install, same bookkeeping: ownership index, level/group
// adoption, custody cleanup, replica re-homing before the ack.  Runs in
// its own goroutine (re-homing performs nested RPCs).
func (s *Snode) handleMigCommit(m migCommitReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "mig.install")
	defer func() { s.tracer.finish(sp, s.id, "") }()
	s.mu.Lock()
	st, ok := s.migIn[m.Partition]
	if !ok || st.to != m.To {
		s.mu.Unlock()
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("no migration staged for %v at %d", m.Partition, s.id)})
		return
	}
	if _, ok := s.vnodes[m.To]; !ok {
		delete(s.migIn, m.Partition)
		s.mu.Unlock()
		s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("vnode %v not allocated at %d", m.To, s.id)})
		return
	}
	applyMigItems(st.data, m.Items)
	// Journal the install with the FULL folded contents before it goes
	// live: the staging chunks were volatile, so the commit record alone
	// must reconstruct the bucket at replay (see walrec.go).
	install := walMigInstallRec{To: m.To, Group: st.group, Level: st.level, Partition: m.Partition, Data: st.data}
	seq := s.journal(install.walTag(), install.fields)
	if !s.durFastAck() {
		// The durability wait must come BEFORE the install goes live: an
		// error reply makes the sender abort back to a live bucket, so
		// installing first and then failing the wait would leave BOTH
		// sides serving.  The staging entry stays in place across the
		// wait (s.mu released) so a racing abort or re-begin is detected
		// by the pointer check below.
		s.mu.Unlock()
		if !s.awaitDurable(seq) {
			s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("snode %d stopping: install not durable", s.id)})
			return
		}
		s.mu.Lock()
		if cur, ok := s.migIn[m.Partition]; !ok || cur != st {
			s.mu.Unlock()
			s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("migration for %v superseded at %d", m.Partition, s.id)})
			return
		}
		if _, ok := s.vnodes[m.To]; !ok {
			delete(s.migIn, m.Partition)
			s.mu.Unlock()
			s.send(from, untraced, ackResp{Op: m.Op, Err: fmt.Sprintf("vnode %v not allocated at %d", m.To, s.id)})
			return
		}
	}
	delete(s.migIn, m.Partition)
	install.applyLocked(s)
	if bk, ok := s.vnodes[m.To].parts[m.Partition]; ok {
		bk.mu.Lock()
		bk.ver = m.Ver
		bk.mu.Unlock()
	}
	s.mu.Unlock()
	// Re-home the replica set with the primary before acknowledging, so
	// the handover never shrinks the number of copies.
	s.rehomeReplicas(m.Partition)
	s.send(from, untraced, ackResp{Op: m.Op})
}

// handleMigAbort discards a staging bucket.  Runs inline.
func (s *Snode) handleMigAbort(m migAbortMsg) {
	s.mu.Lock()
	if st, ok := s.migIn[m.Partition]; ok && st.to == m.To {
		delete(s.migIn, m.Partition)
	}
	s.mu.Unlock()
}

// --- in-doubt intent resolution (recovery) ---

// resolveIntents settles every migration intent that recovery replayed
// without a resolution: the sender crashed somewhere between journaling
// the intent and journaling the bucket drop, so whether the receiver
// committed is unknown.  Each in-doubt bucket recovered FROZEN (reads
// serve, writes requeue); this goroutine probes until every intent is
// settled or the snode stops.  Started by newSnode after recovery.
func (s *Snode) resolveIntents() {
	for {
		s.mu.Lock()
		ps := make([]hashspace.Partition, 0, len(s.inDoubt))
		for p := range s.inDoubt {
			ps = append(ps, p)
		}
		s.mu.Unlock()
		if len(ps) == 0 {
			return
		}
		for _, p := range ps {
			s.resolveIntentOnce(p)
		}
		select {
		case <-s.stopCh:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// resolveIntentOnce probes the receiver of one in-doubt intent and
// settles it when the answer is conclusive:
//
//   - the lookup resolves at another host for this region (the receiver
//     itself, or a third party after a later handover) ⇒ the commit
//     landed; finalize the drop exactly like a clean handover;
//   - the lookup resolves back to THIS snode (the receiver's redirects
//     led here and our own frozen bucket answered) ⇒ the receiver provably
//     does not own the region, so the commit never landed; revert to
//     live and tell the receiver to discard any staging leftovers;
//   - the receiver is unreachable or the lookup fails ⇒ stay frozen and
//     retry: the receiver may have durably committed and be mid-restart,
//     and a blind revert would put two live copies on the fabric.
func (s *Snode) resolveIntentOnce(p hashspace.Partition) {
	s.mu.Lock()
	in, ok := s.inDoubt[p]
	s.mu.Unlock()
	if !ok {
		return
	}
	// The probe uses a short deadline of its own: this loop is the retry
	// layer, and the first reply after a restart is routinely lost to a
	// peer's stale connection — waiting out the full RPC timeout for it
	// would stall every requeued write behind the frozen bucket.
	timeout := time.Second
	if s.cfg.RPCTimeout < timeout {
		timeout = s.cfg.RPCTimeout
	}
	lr, err := s.lookupFrom(in.newOwner.Host, p.Start(), timeout)
	if err != nil {
		s.log.Debug("intent probe failed, staying in doubt", "partition", p.String(), "err", err)
		return
	}
	if lr.Host != s.id && lr.Partition.Level >= p.Level && lr.Partition.Overlaps(p) {
		s.finalizeIntent(p, in)
		return
	}
	if lr.Host == s.id && lr.Partition == p {
		s.revertIntent(p, in)
	}
}

// retireBucket is the sender's end of a committed handover: the local
// copy dies behind a custody tombstone at the new owner (the drop record
// doubles as the intent's resolution) and the old replica set is told to
// let go.  A non-nil only is the intent that must still be the
// partition's open one, or nothing happens.
func (s *Snode) retireBucket(drop walBucketDropRec, only *migIntent) bool {
	s.mu.Lock()
	if only != nil && s.inDoubt[drop.Partition] != only {
		s.mu.Unlock()
		return false
	}
	drop.applyLocked(s)
	seq := s.journal(drop.walTag(), drop.fields)
	s.mu.Unlock()
	s.awaitDurable(seq) // best-effort: a failed wait means we are stopping
	s.dropOrphanReplicas(drop.Partition, drop.NewOwner.Host)
	return true
}

// finalizeIntent completes a crashed handover whose receiver committed,
// exactly like a clean handover's last step.
func (s *Snode) finalizeIntent(p hashspace.Partition, in *migIntent) {
	if s.retireBucket(walBucketDropRec{Vnode: in.vnode, Partition: p, NewOwner: in.newOwner}, in) {
		s.log.Info("migration intent finalized: receiver owns the partition",
			"partition", p.String(), "to", int(in.newOwner.Host))
	}
}

// revertIntent settles a crashed handover whose receiver provably never
// committed: the frozen bucket goes back to live (requeued writes
// proceed) and the resolution is journaled.
func (s *Snode) revertIntent(p hashspace.Partition, in *migIntent) {
	resolved := walMigIntentResolvedRec{Partition: p}
	s.mu.Lock()
	if cur, ok := s.inDoubt[p]; !ok || cur != in {
		s.mu.Unlock()
		return
	}
	resolved.applyLocked(s)
	vs, p2, owned := s.ownsLocked(p.Start())
	if owned && p2 == p {
		bk := vs.parts[p]
		bk.mu.Lock()
		if bk.state == bucketFrozen {
			bk.state = bucketLive
		}
		bk.mig = nil
		bk.mu.Unlock()
	}
	s.journal(resolved.walTag(), resolved.fields)
	s.mu.Unlock()
	s.send(in.newOwner.Host, untraced, migAbortMsg{To: in.newOwner.Vnode, Partition: p})
	s.stats.MigAborts.Add(1)
	s.log.Info("migration intent reverted: receiver never committed",
		"partition", p.String(), "to", int(in.newOwner.Host))
}
