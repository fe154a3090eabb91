package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// Crash-durable snode storage.  With a data directory configured, every
// mutation of an snode's local state — live-bucket writes, replica-store
// writes, migration installs and drops, splits, vnode and LPDR lifecycle
// — is journaled to a per-snode write-ahead log (internal/wal) before it
// is acknowledged, and a background pass periodically snapshots the
// snode's state and truncates the log behind it.  A snapshot is itself a
// file of journal records, so a restarted snode (Cluster.RestartSnode, or
// a dhtd reboot over the same -data-dir) replays snapshot and log tail
// through the one record apply before it starts serving,
// so an R=1 single-snode restart loses zero acknowledged writes — the
// durability the paper's failure-free model never needed, and the
// foundation under the replication layer's crash story (a whole-cluster
// restart no longer loses everything).
//
// Layout under DurabilityConfig.Dir:
//
//	snode-<id>/
//	  wal/<firstseq>.seg   CRC-framed record segments (internal/wal)
//	  snapshot             the latest complete snapshot: journal records in
//	                       the same framing, ending in the replay cut
//
// Consistency model: records append under the same fine-grained lock
// that applies the mutation (the bucket's mutex for data writes, the
// snode mutex for the rest), and the snapshot pass captures its cut
// BEFORE serializing any state, so every record outside the snapshot has
// a sequence at or above the cut.  Records are idempotent, which lets a
// bucket serialized late in the pass — already containing post-cut
// writes — absorb their replay harmlessly.  The snapshot is trusted only
// whole: a file that fails its framing, or ends before its closing
// record, refuses recovery, because the log behind it is truncated.
//
// Migration handovers are journaled in two phases (migrate.go): the
// sender makes a walTagMigIntent record durable before the receiver may
// commit, and the bucket-drop (or abort-resolution) record closes it.  A
// sender crashing anywhere in between — including the once-documented
// window after the receiver committed but before the drop became durable
// — replays the partition FROZEN and in-doubt; the resolveIntents
// goroutine probes the receiver and either finalizes the drop (receiver
// owns the region) or reverts to live (receiver provably never
// committed), so a crash can no longer resurrect a stale copy of a
// partition that lives elsewhere.

// DurabilityConfig parameterizes the per-snode durability layer.  The
// zero value disables it (no I/O on any path).
type DurabilityConfig struct {
	// Dir is the root data directory; each snode uses Dir/snode-<id>.
	// Empty disables durability.
	Dir string
	// Fsync selects the durability class of acknowledged writes
	// (default wal.FsyncOff; wal.FsyncBatch group-commits an fsync per
	// flush round before acks).
	Fsync wal.FsyncMode
	// SnapshotInterval paces the background snapshot+truncate pass
	// (default 30s; negative disables background snapshots — the log
	// then grows until SnapshotNow).
	SnapshotInterval time.Duration
	// SegmentBytes caps one WAL segment file (default 16 MiB).
	SegmentBytes int64
	// Faults optionally injects disk faults (slow or failing fsyncs)
	// into every snode's WAL — the nemesis hook for fault-tolerance
	// scenarios.  Nil means healthy disks.
	Faults *wal.Faults
}

// durable is an snode's durability state (nil when off).
type durable struct {
	log      *wal.Log
	snapPath string
	interval time.Duration

	// snapMu serializes snapshot passes (the background loop and
	// SnapshotNow would otherwise write the same temporary file at once);
	// lastCut is the cut of the latest PUBLISHED snapshot — a pass whose
	// cut has not advanced is a no-op.
	snapMu  sync.Mutex
	lastCut uint64 // guarded by snapMu

	// jw is journal's walker, reused across records: fields reaches journal
	// as a func value, and a walker handed to one would otherwise move to
	// the heap, once per record (TestWireEncodeDoesNotAllocate).  Touched
	// only inside log.AppendWith's callback, which the log serializes.
	jw walker
}

// journal appends one record to the snode's log — its tag, then its
// fields walk, encoded straight into the log's buffer — and returns its
// sequence; 0 means durability is off or the log already closed
// (awaitDurable then fails the ack).  Callers pass rec.walTag() and
// rec.fields, under the lock they apply rec with.
func (s *Snode) journal(tag uint16, fields func(*walker)) uint64 {
	d := s.dur
	if d == nil {
		return 0
	}
	return d.log.AppendWith(func(b []byte) []byte {
		d.jw = walker{b: transport.AppendUvarint(b, uint64(tag))}
		fields(&d.jw)
		b, d.jw.b = d.jw.b, nil // the buffer is the log's: keep no pointer into it
		return b
	})
}

// mutate is a whole mutation: rec applied and journaled under s.mu.  The
// sequence it returns is for awaitDurable.  (The replica-write path spells
// the two steps out: boxing its record here would put it on the heap.)
func (s *Snode) mutate(rec walRecord) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.applyLocked(s)
	return s.journal(rec.walTag(), rec.fields)
}

// ackDurable acknowledges op to its sender once the record at seq is
// durable, failing the ack if the log closes first.  Inline when nothing
// waits; otherwise on a goroutine, because its callers run in the actor
// loop and a group-fsync wait must not stall message dispatch.
func (s *Snode) ackDurable(to transport.NodeID, op, seq uint64, what string, sp activeSpan) {
	ack := func() {
		resp := ackResp{Op: op}
		if !s.awaitDurable(seq) {
			resp.Err = fmt.Sprintf("snode %d stopping: %s not durable", s.id, what)
		}
		s.tracer.finish(sp, s.id, resp.Err)
		s.send(to, untraced, resp)
	}
	if s.durFastAck() {
		ack()
	} else {
		go ack()
	}
}

// durFastAck reports whether an ack may be sent inline without a
// durability wait (durability off entirely, or FsyncOff mode where
// WaitDurable never blocks).  It decides only whether a wait needs a
// goroutine or a lock released around it; whether to acknowledge is
// awaitDurable's call.
func (s *Snode) durFastAck() bool {
	return s.dur == nil || s.dur.log.Mode() == wal.FsyncOff
}

// awaitDurable reports whether the mutation journaled at seq may be
// acknowledged as durable: at once when nothing waits (durFastAck), else
// once the record is on disk per the fsync mode.  False means the log
// closed first, or never accepted the record (seq 0).
func (s *Snode) awaitDurable(seq uint64) bool {
	if s.durFastAck() {
		return true
	}
	defer s.lat.walWait.ObserveSince(time.Now())
	return seq != 0 && s.dur.log.WaitDurable(seq)
}

// --- open & recover ---

// snodeDataDir returns one snode's directory under the configured root.
func snodeDataDir(root string, id transport.NodeID) string {
	return filepath.Join(root, fmt.Sprintf("snode-%d", id))
}

// openDurabilityLocked replays the snode's snapshot and then its log
// tail into its (not yet serving) state, and keeps the log open for
// appends.  Called by newSnode, holding s.mu, before the snode joins the
// fabric.
func (s *Snode) openDurabilityLocked() error {
	dc := s.cfg.Durability
	root := snodeDataDir(dc.Dir, s.id)
	if _, err := os.Stat(filepath.Join(root, "snap", "MANIFEST")); err == nil {
		// Its log was truncated against a snapshot this node cannot read:
		// replaying the log alone would silently lose data.
		return fmt.Errorf("cluster: durability: %s holds a snapshot in the per-bucket layout (snap/MANIFEST) of releases before snapshots became journal records; this release does not read it", root)
	}
	snapPath := filepath.Join(root, "snapshot")
	var end *walSnapEndRec
	err := wal.ReadSnapshot(snapPath, func(payload []byte) error {
		if end != nil {
			return errors.New("records after the end record")
		}
		rec, err := decodeWalRecord(payload)
		if err != nil {
			return err
		}
		rec.applyLocked(s)
		end, _ = rec.(*walSnapEndRec)
		return nil
	})
	cut := uint64(0)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Never snapshotted: the log holds everything from sequence 1.
	case err != nil:
		return fmt.Errorf("cluster: durability: %s: %w", snapPath, err)
	case end == nil:
		return fmt.Errorf("cluster: durability: %s ends before its end record", snapPath)
	default:
		cut = end.Cut
	}
	log, err := wal.Open(filepath.Join(root, "wal"), wal.Options{
		Fsync: dc.Fsync, SegmentBytes: dc.SegmentBytes, Logger: s.log,
		Faults: dc.Faults,
	})
	if err != nil {
		return err
	}
	if err := log.Replay(cut, s.applyWalRecordLocked); err != nil {
		_ = log.Close()
		return err
	}
	s.dur = &durable{log: log, snapPath: snapPath, interval: dc.SnapshotInterval, lastCut: cut}
	s.lat.walFsync = log.FsyncLatency()
	// Freeze every in-doubt partition before the snode starts serving:
	// whether the crashed handover's receiver committed is unknown, so
	// reads may serve (both copies agree — the bucket froze before the
	// final delta shipped) but writes must wait for resolveIntents'
	// verdict.  An intent for a partition no longer owned (its drop
	// record followed in the log) is stale bookkeeping and is pruned.
	for p := range s.inDoubt {
		if ref, ok := s.owned[p]; ok {
			ref.bk.setState(bucketFrozen)
		} else {
			delete(s.inDoubt, p)
		}
	}
	// A copy no primary feeds is the leftover of a move cut between its
	// sync and its commit or abort: at R=1 every copy is one (neither
	// anti-entropy nor failover will ever drop it), and so is a copy of a
	// partition this snode owns (a move between two of its vnodes).  The
	// drop is journaled, so the next replay does not rebuild them.
	unfed := replDropMsg{}
	for q := range s.rparts {
		own := s.cfg.Replicas <= 1
		for p := range s.owned {
			own = own || p.Overlaps(q)
		}
		if own {
			unfed.Partitions = append(unfed.Partitions, q)
		}
	}
	if len(unfed.Partitions) > 0 {
		unfed.applyLocked(s)
		s.journal(unfed.walTag(), unfed.fields)
	}
	// Reinstall leadership for the groups this snode led: the recovered
	// LPDR states carry the leader, and installLeaderLocked rebuilds the
	// balance table from the members.
	for _, st := range s.replicas {
		if st.Leader == s.id {
			if _, dup := s.led[st.Group]; !dup {
				s.installLeaderLocked(*st)
			}
		}
	}
	return nil
}

// recovered reports whether recovery produced any joined vnode — the
// signal for the cluster handle to adopt this snode's DHT instead of
// bootstrapping a fresh one.
func (s *Snode) recoveredVnodes() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vs := range s.vnodes {
		if vs.joined {
			return true
		}
	}
	return false
}

// ownedRoutes lists this snode's owned partitions as route entries — the
// recovery announcement RestartSnode broadcasts so survivors' custody
// chains (pruned when the snode crashed) reach the recovered data again.
func (s *Snode) ownedRoutes() []routeEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]routeEntry, 0, len(s.owned))
	for p, ref := range s.owned {
		out = append(out, routeEntry{Partition: p, Ref: ownerRef{Vnode: ref.vs.name, Host: s.id}})
	}
	return out
}

// --- replay ---

// decodeWalRecord reads one journal record: the tag picks the row of
// walRecords, and the row's record walks the bytes.
func decodeWalRecord(payload []byte) (walRecord, error) {
	w := &walker{r: transport.NewWireReader(payload)}
	tag := w.r.Uvarint()
	for _, row := range walRecords {
		if uint64(row.tag) == tag {
			rec := row.new()
			rec.fields(w)
			return rec, w.r.Err()
		}
	}
	return nil, fmt.Errorf("unknown tag %d — downgraded binary over a newer log?", tag)
}

// applyWalRecordLocked decodes one log record and runs the applyLocked
// the live handler ran, during recovery.  Caller holds s.mu; no fabric
// yet.  Records are idempotent, so a record the snapshot already
// reflects applies harmlessly.
func (s *Snode) applyWalRecordLocked(seq uint64, payload []byte) error {
	rec, err := decodeWalRecord(payload)
	if err != nil {
		return fmt.Errorf("cluster: wal record %d: %w", seq, err)
	}
	rec.applyLocked(s)
	return nil
}

// --- snapshots ---

// snapshotLoop paces the background snapshot+truncate pass.
func (s *Snode) snapshotLoop() {
	t := time.NewTicker(s.dur.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			_ = s.snapshotPass()
		}
	}
}

// snapshotPass writes one complete snapshot (the snode's whole state)
// and truncates the log behind it.  The cut is captured first, so every
// mutation not yet serialized has a record at or above it; a bucket that
// DIES mid-pass (migrated or split away) invalidates the pass — its data
// would otherwise be lost to replay — and the pass retries with a fresh
// cut (splits and handovers are rare; the retry converges).
func (s *Snode) snapshotPass() error {
	if s.dur == nil {
		return nil
	}
	s.dur.snapMu.Lock()
	defer s.dur.snapMu.Unlock()
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		cut, ok, err := s.trySnapshot(s.dur.lastCut)
		if ok {
			s.dur.lastCut = cut
		}
		if ok || err != nil {
			return err
		}
	}
	// Every attempt found a captured bucket dead mid-pass (heavy migration
	// churn).  Surface it: the published cut did not advance, so callers
	// relying on a fresh snapshot (POST /v1/snapshot before a backup) must
	// not be told it exists.
	return fmt.Errorf("cluster: snode %d: snapshot aborted %d times by concurrent handovers; retry when migration settles", s.id, maxAttempts)
}

// errBucketMoved aborts a snapshot attempt that found a captured bucket
// dead: its partition moved or split away mid-pass.
var errBucketMoved = errors.New("cluster: snapshot: a captured bucket moved mid-pass")

// trySnapshot runs one snapshot attempt against the last published cut;
// ok=false (with nil error) means a bucket died mid-pass and the caller
// should retry.  On ok it returns the cut now published, which the caller
// records as lastCut — the caller (snapshotPass) owns that field's guard,
// so the guarded access stays where snapMu is visibly held.
func (s *Snode) trySnapshot(lastCut uint64) (newCut uint64, ok bool, err error) {
	cut := s.dur.log.NextSeq()
	if cut <= lastCut {
		return lastCut, true, nil // no record landed since the published snapshot
	}
	// Every record below the cut reaches the disk before the snapshot is
	// published: a crash that lost one would restart the log's numbering
	// below the cut, and replay from the cut would skip what came after.
	if err := s.dur.log.Sync(); err != nil {
		return lastCut, false, err
	}
	err = s.dur.log.Stats().WriteSnapshot(s.dur.snapPath, func(add func([]byte) error) error {
		return s.snapshotRecords(cut, add)
	})
	if errors.Is(err, errBucketMoved) {
		return lastCut, false, nil // retry with a fresh cut
	}
	if err != nil {
		return lastCut, false, err
	}
	return cut, true, s.dur.log.TruncateThrough(cut - 1)
}

// snapChunkBytes bounds the keys and values of one owned bucket's tag-32
// record in a snapshot, far below the log's record limit.
const snapChunkBytes = 1 << 20

// snapshotRecords hands add the snode's state as journal records, in the
// order their applyLocked needs on a fresh snode: the boot route; the
// LPDR states, which find no vnode yet and so are stored as captured;
// the vnodes with their partitions; the custody tombs, as drops naming no
// hosted vnode (snode ids start at 1); the open intents, after the tombs
// whose drops would close them; the owned buckets' contents, as puts;
// the replica buckets, as full syncs; and last the end record with the
// cut.  The metadata is captured in one s.mu hold, each bucket under its
// own guard.
func (s *Snode) snapshotRecords(cut uint64, add func([]byte) error) error {
	type ownedSnap struct {
		p  hashspace.Partition
		bk *bucket
	}
	var (
		meta   [][]byte
		owned  []ownedSnap
		rparts []hashspace.Partition
		end    = walSnapEndRec{Cut: cut}
	)
	s.mu.Lock()
	if s.hasBoot {
		meta = append(meta, appendRecord(nil, &bootstrapInfo{Owner: s.boot}))
	}
	for _, st := range s.replicas {
		meta = append(meta, appendRecord(nil, &lpdrSyncMsg{State: *st}))
	}
	for name, vs := range s.vnodes {
		rec := walVnodeRec{Name: name, Group: vs.group, Level: vs.level, Joined: vs.joined}
		for p, bk := range vs.parts {
			rec.Parts = append(rec.Parts, p)
			owned = append(owned, ownedSnap{p: p, bk: bk})
		}
		meta = append(meta, appendRecord(nil, &rec))
	}
	for p, ref := range s.tombs {
		meta = append(meta, appendRecord(nil, &walBucketDropRec{Partition: p, NewOwner: ref}))
	}
	for p, in := range s.inDoubt {
		// An open intent must outlive the truncation of its own record, or
		// a crash before its resolution would reopen the stale-copy window
		// the intent exists to close.
		meta = append(meta, appendRecord(nil, &walMigIntentRec{Vnode: in.vnode, Partition: p, NewOwner: in.newOwner}))
	}
	end.NextLocal = s.nextLocal
	for p := range s.rparts {
		rparts = append(rparts, p)
	}
	s.mu.Unlock()
	for _, rec := range meta {
		if err := add(rec); err != nil {
			return err
		}
	}

	var (
		buf   []byte
		items []batchItem
	)
	for _, o := range owned {
		// Only references are taken under the lock: a store adopts its
		// values and never writes one in place.
		o.bk.mu.RLock()
		if o.bk.state == bucketDead {
			o.bk.mu.RUnlock()
			return errBucketMoved
		}
		items = items[:0]
		for k, v := range o.bk.kv.m {
			items = append(items, batchItem{Key: k, Value: v})
		}
		o.bk.mu.RUnlock()
		for i := 0; i < len(items); {
			j, size := i, 0
			for ; j < len(items) && size < snapChunkBytes; j++ {
				size += len(items[j].Key) + len(items[j].Value)
			}
			buf = appendRecord(buf[:0], &walWriteRec{Kind: opPut, Partition: o.p, Items: items[i:j]})
			if err := add(buf); err != nil {
				return err
			}
			i = j
		}
	}
	// Replica buckets are guarded by s.mu: one at a time, so the stall is
	// per bucket.  One dropped since the capture is skipped (its drop
	// record is past the cut).
	for _, p := range rparts {
		s.mu.Lock()
		b, ok := s.rparts[p]
		if ok {
			buf = appendRecord(buf[:0], &walReplSyncRec{Partition: p, Data: b.kv})
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		if err := add(buf); err != nil {
			return err
		}
	}
	return add(appendRecord(buf[:0], &end))
}

// SnapshotNow forces one snapshot+truncate pass on every live snode —
// operator hook (tests, the HTTP admin plane, graceful shutdowns).
func (c *Cluster) SnapshotNow() error {
	for _, s := range c.liveSnodes() {
		if err := s.snapshotPass(); err != nil {
			return err
		}
	}
	return nil
}

// WALStats aggregates the live snodes' durability counters (plus those
// of snodes that already left), for the dbdht_wal_* metrics.  All zeros
// when durability is off.
func (c *Cluster) WALStats() wal.StatsSnapshot {
	c.retiredMu.Lock()
	tot := c.retiredWal
	c.retiredMu.Unlock()
	for _, s := range c.liveSnodes() {
		if s.dur != nil {
			tot.Fold(s.dur.log.Stats().Snapshot())
		}
	}
	return tot
}

// DurabilityEnabled reports whether the cluster journals to disk, and
// under which fsync mode.
func (c *Cluster) DurabilityEnabled() (bool, wal.FsyncMode) {
	return c.cfg.Durability.Dir != "", c.cfg.Durability.Fsync
}
