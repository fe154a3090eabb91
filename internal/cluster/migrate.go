package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Live partition migration: a move is a replica sync plus the install a
// failover promotion performs.  To move partition p from this snode (A)
// to vnode To on snode B:
//
//  1. The transfer claims p (bucket.claim): p stays live, and every key
//     written from then on lands in p's dirty set.
//  2. A ships p's base with syncReplica, the frame, handler and journal
//     record of a replica repair: B holds a whole copy fed by A, and B
//     joins p's fan-out set, so at R ≥ 2 writes reach the copy as they
//     reach any replica.
//  3. A freezes p (writes requeue), journals the migration intent and
//     sends migCommitReq with the dirty set's current values.  The set
//     is exact by construction — every write since the claim — and it
//     keeps the move off the replica plane at R=1.
//  4. B folds the delta into its copy and installs it (installLocked,
//     shared with promotePartition): the copy leaves the replica store,
//     the install is journaled with the full contents and made durable,
//     then applied at A's write version; B re-homes the replica set and
//     acknowledges.  A retires p behind a custody tombstone.
//
// Any failure aborts: A thaws p (requeued writes proceed), and if the
// sync made B a holder it was not before, B leaves p's fan-out set and
// drops the copy (replDropMsg), so the partition stays owned by exactly
// one host and no copy the move added outlives it.  The one ambiguous
// case is a commit whose ACK is lost: B may have installed, or may still
// be waiting for its install to be durable.  A then probes B with a
// lookup and completes the handover if B answers as owner.  Its last
// probe follows a drop of p on the same ordered link: B either went live
// before the drop, and the probe sees it, or the drop makes B refuse the
// install when its wait ends (installLocked).  Only then does A abort —
// reverting blindly would leave both sides serving.
//
// The handover is journaled in two phases: right before the commit RPC —
// while the bucket is frozen — A journals a *migration intent*
// (walTagMigIntent) and waits for it to be durable.  On success the
// bucket-drop record doubles as the resolution; an abort journals
// walTagMigIntentResolved.  A sender that crashes anywhere between the
// intent and its resolution therefore replays into an *in-doubt* state:
// the bucket recovers FROZEN (reads serve, writes wait) and a resolver
// goroutine probes the receiver with a lookup — exactly the lost-ack
// probe — finalizing the drop if the receiver (or any third party, after
// a later handover) owns the region, reverting to live if the probe
// resolves back to this snode, and staying frozen while the receiver is
// unreachable (it may have durably committed, so a blind revert could
// resurrect a stale copy).

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

// migItem is one key of a commit's delta.  Del marks a deletion since
// the claim (the receiver's copy must forget the key).
type migItem struct {
	Key   string
	Value []byte
	Del   bool
}

// migCommitReq is the frozen-window delta: the receiver folds it into its
// copy of Partition, fed by the sender's sync, and installs the copy as
// the live owned partition of vnode To at group Group and level Level,
// starting at the sender's write version Ver.
type migCommitReq struct {
	Op        uint64
	To        VnodeName
	Group     core.GroupID
	Level     uint8
	Partition hashspace.Partition
	Items     []migItem
	Ver       uint64
}

// --- sender side ---

// collectDeltaLocked turns a moving bucket's dirty set into commit items
// reflecting its current contents (absent key ⇒ deletion).  Caller holds
// the bucket's mutex (read or write).
func collectDeltaLocked(bk *bucket) []migItem {
	if len(bk.dirty) == 0 {
		return nil
	}
	items := make([]migItem, 0, len(bk.dirty))
	for k := range bk.dirty {
		if v, ok := bk.kv.m[k]; ok {
			items = append(items, migItem{Key: k, Value: v})
		} else {
			items = append(items, migItem{Key: k, Del: true})
		}
	}
	return items
}

// migratePartition moves one owned, live partition to its new owner and
// returns the number of key entries shipped.  The caller has claimed bk
// (bucket.claim).  On error the bucket is live again, unclaimed and still
// owned here; on success it is dead behind a custody tombstone and the
// receiver owns the partition.
func (s *Snode) migratePartition(g core.GroupID, to VnodeName, toHost transport.NodeID, p hashspace.Partition, level uint8, vs *vnodeState, bk *bucket) (int, error) {
	// Migrations originate at this snode, not at a client, so they draw
	// their own head-sampling decision; the whole handover becomes one
	// trace ("mig.partition" root, sync, commit and install children).
	root := beginSpan(s.sampler.next(), "mig.partition")

	// The receiver may hold a copy already, as a target of p or a host of
	// its fan-out set; an abort unplaces it only if this move placed it.
	// The drop goes once: after a lost commit ACK, before the last probe.
	s.mu.Lock()
	added := !slices.Contains(s.targets, toHost) && !slices.Contains(s.placed[p], toHost)
	s.mu.Unlock()
	dropped := false
	drop := func() {
		dropped = true
		s.mu.Lock()
		if i := slices.Index(s.placed[p], toHost); added && i >= 0 {
			s.setPlacedLocked(p, slices.Delete(slices.Clone(s.placed[p]), i, i+1))
		}
		s.mu.Unlock()
		s.send(toHost, untraced, replDropMsg{Partitions: []hashspace.Partition{p}})
	}
	moved := 0
	abort := func(err error) (int, error) {
		bk.mu.Lock()
		bk.dirty = nil
		if bk.state == bucketFrozen {
			bk.state = bucketLive
		}
		bk.mu.Unlock()
		if added && !dropped {
			drop()
		}
		s.stats.MigAborts.Add(1)
		s.tracer.finish(root, s.id, err.Error())
		s.log.Warn("migration aborted", "partition", p, "to", int(toHost), "err", err)
		return moved, err
	}

	// Ship the base.  Dirty tracking has been on since the claim, so every
	// write is in the copy, in the dirty set, or both (re-sent values are
	// idempotent).
	csp := beginSpan(root.ctx, "mig.sync")
	t0 := time.Now()
	moved, live, err := s.syncReplica(p, toHost)
	s.lat.migChunk.ObserveSince(t0)
	s.tracer.finishErr(csp, s.id, err)
	switch {
	case !live:
		return abort(fmt.Errorf("cluster: partition %v not live for migration", p))
	case err != nil:
		return abort(err)
	}
	s.stats.ChunksSent.Add(1)

	// Freeze for the delta.  Writes arriving now requeue on the batch
	// path's frozen-deadline loop; the window is one commit round-trip.
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
	final := collectDeltaLocked(bk)
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

	csp = beginSpan(root.ctx, "mig.commit")
	_, err = ask[ackResp](&s.endpoint, toHost, csp.ctx, func(op uint64) transport.WireMessage {
		return migCommitReq{Op: op, To: to, Group: g, Level: level, Partition: p, Items: final, Ver: ver}
	})
	s.tracer.finishErr(csp, s.id, err)
	var refused remoteError
	if errors.As(err, &refused) {
		return abortResolved(fmt.Errorf("cluster: migration commit at %d: %w", toHost, err))
	}
	if err != nil {
		// A failed commit RPC is not a failed commit: the install may
		// have landed with only its ACK lost, or still be in its durable
		// wait, and reverting blindly would leave BOTH snodes serving.
		// Ask the receiver; complete the handover if it answers as owner
		// (a redirect is a not-owning answer).  Probes are retried with a
		// pause, since the commit handler runs in its own goroutine, and
		// the last goes out behind a drop of p that the receiver handles
		// first (one ordered link, both inline): an install not live by
		// then is refused when its wait ends, so that answer is final.
		// A receiver that never answers has crashed under the model's
		// no-partition assumption, and serves nobody.
		for attempt := 0; attempt < 5 && err != nil; attempt++ {
			switch {
			case attempt == 4:
				drop()
			case attempt > 0:
				time.Sleep(20 * time.Millisecond)
			}
			lr, lerr := ask[lookupResp](&s.endpoint, toHost, untraced, func(op uint64) transport.WireMessage {
				return lookupReq{Op: op, R: p.Start()}
			})
			if lerr == nil && lr.Owner == to && lr.Host == toHost && lr.Partition == p {
				err = nil
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

// handleMigCommit folds the final delta into this snode's copy of the
// partition, which the sender's sync made, installs it as the live owned
// partition, re-homes the replica set and acknowledges.  Runs in its own
// goroutine (re-homing performs nested RPCs).
func (s *Snode) handleMigCommit(m migCommitReq, from transport.NodeID, tr transport.TraceContext) {
	sp := beginSpan(tr, "mig.install")
	err := s.installMoved(m, from)
	s.tracer.finishErr(sp, s.id, err)
	if err != nil {
		s.send(from, untraced, ackResp{Op: m.Op, Err: err.Error()})
		return
	}
	s.rehomeReplicas(m.Partition)
	s.send(from, untraced, ackResp{Op: m.Op})
}

// installMoved folds m's delta into the copy from's sync made and
// installs it (installLocked).
func (s *Snode) installMoved(m migCommitReq, from transport.NodeID) error {
	s.mu.Lock()
	b, ok := s.rparts[m.Partition]
	if !ok || b.prim != from {
		s.mu.Unlock()
		return fmt.Errorf("no copy of %v from %d at %d", m.Partition, from, s.id)
	}
	if _, ok := s.vnodes[m.To]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("vnode %v not allocated at %d", m.To, s.id)
	}
	for _, it := range m.Items {
		if it.Del {
			b.kv.del(it.Key)
		} else {
			b.kv.put(it.Key, it.Value)
		}
	}
	return s.installLocked(walMigInstallRec{To: m.To, Group: m.Group, Level: m.Level, Partition: m.Partition, Data: b.kv}, m.Ver, nil, from)
}

// installLocked makes the replica copy rec.Data the live bucket of vnode
// rec.To — a move's commit from snode from, or a failover promotion (from
// 0).  The copy leaves the replica store as its install is journaled, so
// no replica write still in flight can change a store the journal holds,
// and no second install can take the same copy.  The install is made
// durable BEFORE it goes live: an error reply makes a move's sender abort
// back to a live bucket, so installing first and then failing the wait
// would leave both sides serving.  For the same reason a move's install
// stays in s.installing across the wait: a drop of p meanwhile means the
// sender gave the move up (its commit ACK was lost), so the install is
// refused, and journaled back to the sender so a replay does not install
// it either.  The bucket then starts at write version ver, and keep, if
// any, becomes p's fan-out set.  Caller holds s.mu; installLocked
// releases it.
func (s *Snode) installLocked(rec walMigInstallRec, ver uint64, keep []transport.NodeID, from transport.NodeID) error {
	p := rec.Partition
	s.dropReplicaLocked(p)
	if from != 0 {
		s.installing[p] = rec.Data
	}
	seq := s.journal(rec.walTag(), rec.fields)
	s.mu.Unlock()
	durable := s.awaitDurable(seq)
	s.mu.Lock()
	if from != 0 && s.installing[p] != rec.Data {
		back := walBucketDropRec{Vnode: rec.To, Partition: p, NewOwner: ownerRef{Host: from}}
		back.applyLocked(s)
		seq := s.journal(back.walTag(), back.fields)
		s.mu.Unlock()
		s.awaitDurable(seq)
		return fmt.Errorf("cluster: move of %v given up by %d during its install at %d", p, from, s.id)
	}
	defer s.mu.Unlock()
	if from != 0 {
		delete(s.installing, p)
	}
	if !durable {
		return fmt.Errorf("cluster: snode %d stopping: install not durable", s.id)
	}
	vs, ok := s.vnodes[rec.To]
	if !ok {
		return fmt.Errorf("cluster: vnode %v vanished at %d during install", rec.To, s.id)
	}
	rec.applyLocked(s)
	bk := vs.parts[p]
	bk.mu.Lock()
	bk.ver = ver // keep the version climbing across the handover
	bk.mu.Unlock()
	if len(keep) > 0 {
		s.setPlacedLocked(p, keep)
	}
	return nil
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
//     led here and our own frozen bucket answered) ⇒ the receiver does
//     not own the region yet.  A drop of p goes to the receiver and the
//     probe is repeated behind it, as a lost commit ACK's last probe is
//     (migratePartition): the drop makes an install still in its durable
//     wait fail, and takes the copy the move gave the receiver.  If the
//     probe still resolves here, the commit never landed; revert to live;
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
		s.send(in.newOwner.Host, untraced, replDropMsg{Partitions: []hashspace.Partition{p}})
		lr, err = s.lookupFrom(in.newOwner.Host, p.Start(), timeout)
		if err == nil && lr.Host == s.id && lr.Partition == p {
			s.revertIntent(p, in)
		}
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
// proceed) and the resolution is journaled.  The receiver's copy went
// with the drop resolveIntentOnce sent, and `placed`, volatile, holds
// nothing for p since the restart.
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
		bk.dirty = nil
		bk.mu.Unlock()
	}
	s.journal(resolved.walTag(), resolved.fields)
	s.mu.Unlock()
	s.stats.MigAborts.Add(1)
	s.log.Info("migration intent reverted: receiver never committed",
		"partition", p.String(), "to", int(in.newOwner.Host))
}
