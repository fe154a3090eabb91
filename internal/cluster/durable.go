package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
// materialized buckets and truncates the log behind them.  A restarted
// snode (Cluster.RestartSnode, or a dhtd reboot over the same -data-dir)
// replays snapshot + log tail into its buckets before it starts serving,
// so an R=1 single-snode restart loses zero acknowledged writes — the
// durability the paper's failure-free model never needed, and the
// foundation under the replication layer's crash story (a whole-cluster
// restart no longer loses everything).
//
// Layout under DurabilityConfig.Dir:
//
//	snode-<id>/
//	  wal/<firstseq>.seg   CRC-framed record segments (internal/wal)
//	  snap/MANIFEST        replay cut of the latest complete snapshot
//	  snap/<cut>/meta.snap           snode metadata (vnodes, tombs, LPDRs, …)
//	  snap/<cut>/own-<lvl>-<pfx>.snap  one owned bucket's contents
//	  snap/<cut>/repl-<lvl>-<pfx>.snap one replica bucket's contents
//
// Consistency model: records append under the same fine-grained lock
// that applies the mutation (the bucket's mutex for data writes, the
// snode mutex for the rest), and the snapshot pass captures its cut
// BEFORE serializing any state, so every record outside the snapshot has
// a sequence at or above the cut.  Records are idempotent, which lets a
// bucket serialized late in the pass — already containing post-cut
// writes — absorb their replay harmlessly.
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
	snapRoot string
	interval time.Duration

	// snapMu serializes snapshot passes (the background loop and
	// SnapshotNow can otherwise interleave two passes whose retire steps
	// delete each other's directories); lastCut is the cut of the latest
	// PUBLISHED snapshot — a pass whose cut has not advanced is a no-op,
	// which also guarantees a fresh pass never writes into (or aborts
	// away) the directory the manifest currently references.
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

// openDurabilityLocked opens the snode's WAL and replays snapshot + tail
// into its (not yet serving) state.  Called by newSnode, holding s.mu,
// before the snode joins the fabric.
func (s *Snode) openDurabilityLocked() error {
	dc := s.cfg.Durability
	root := snodeDataDir(dc.Dir, s.id)
	snapRoot := filepath.Join(root, "snap")
	if err := os.MkdirAll(snapRoot, 0o755); err != nil {
		return fmt.Errorf("cluster: durability: %w", err)
	}
	cut := uint64(0)
	manifest := filepath.Join(snapRoot, "MANIFEST")
	if payload, err := wal.ReadSnapshot(manifest); err == nil {
		m, derr := decodeSnap("manifest", payload, (*snapManifest).fields)
		if derr != nil {
			return fmt.Errorf("cluster: durability: %w", derr)
		}
		if err := s.loadSnapshotLocked(filepath.Join(snapRoot, strconv.FormatUint(m.Cut, 10))); err != nil {
			return err
		}
		cut = m.Cut
	} else if !errors.Is(err, os.ErrNotExist) {
		// The manifest exists but does not verify: the log may have been
		// truncated against it, so replay-from-zero could silently lose
		// data.  Refuse to start instead.
		return fmt.Errorf("cluster: durability: %w", err)
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
	s.dur = &durable{log: log, snapRoot: snapRoot, interval: dc.SnapshotInterval, lastCut: cut}
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

// loadSnapshotLocked rebuilds the snode's state from one complete
// snapshot directory.  Caller holds s.mu (recovery).
func (s *Snode) loadSnapshotLocked(dir string) error {
	payload, err := wal.ReadSnapshot(filepath.Join(dir, "meta.snap"))
	if err != nil {
		return err
	}
	meta, err := decodeSnap("meta", payload, (*snapMeta).fields)
	if err != nil {
		return err
	}
	s.nextLocal = meta.NextLocal
	s.hasBoot = meta.HasBoot
	s.boot = meta.Boot
	for i := range meta.Vnodes {
		meta.Vnodes[i].applyLocked(s)
	}
	for _, t := range meta.Tombs {
		s.setTombLocked(t.Partition, t.Ref)
	}
	// The LPDR replicas are restored as captured, not applied as syncs: a
	// sync also binds the member vnodes to its level, and a vnode captured
	// just after a split is already ahead of the replica captured with it.
	for i := range meta.Lpdrs {
		s.replicas[meta.Lpdrs[i].Group] = &meta.Lpdrs[i]
	}
	for i := range meta.Intents {
		meta.Intents[i].applyLocked(s)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("cluster: durability: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		// Only complete bucket files: a crash mid-WriteSnapshot can leave
		// *.snap.tmp leftovers in the directory, which must not be read.
		if !strings.HasSuffix(name, ".snap") {
			continue
		}
		isOwn := strings.HasPrefix(name, "own-")
		isRepl := strings.HasPrefix(name, "repl-")
		if !isOwn && !isRepl {
			continue
		}
		payload, err := wal.ReadSnapshot(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		b, err := decodeSnap("bucket", payload, (*snapBucket).fields)
		if err != nil {
			return err
		}
		if isOwn {
			if ref, ok := s.owned[b.Partition]; ok {
				ref.bk.mu.Lock()
				ref.bk.kv.replaceAll(b.Data)
				ref.bk.mu.Unlock()
			}
			continue
		}
		s.setReplicaBucketLocked(b.Partition, &replicaBucket{kv: newStore(b.Data)})
	}
	for _, p := range meta.Rprov {
		if b, ok := s.rparts[p]; ok {
			b.provisional = true
		}
	}
	return nil
}

// --- replay ---

// applyWalRecordLocked decodes one journal record and applies it, during
// recovery: the tag picks the row of walRecords, the row's record walks
// the bytes and runs the applyLocked the live handler ran.  Caller holds
// s.mu; no fabric yet.  Records are idempotent, so a record the snapshot
// already reflects applies harmlessly.
func (s *Snode) applyWalRecordLocked(seq uint64, payload []byte) error {
	w := &walker{r: transport.NewWireReader(payload)}
	tag := w.r.Uvarint()
	for _, row := range walRecords {
		if uint64(row.tag) != tag {
			continue
		}
		rec := row.new()
		rec.fields(w)
		if err := w.r.Err(); err != nil {
			return fmt.Errorf("cluster: wal record %d: %w", seq, err)
		}
		rec.applyLocked(s)
		return nil
	}
	return fmt.Errorf("cluster: wal record %d: unknown tag %d — downgraded binary over a newer log?", seq, tag)
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

// snapshotPass writes one complete snapshot (metadata + every bucket)
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
	// churn).  Surface it: the manifest cut did not advance, so callers
	// relying on a fresh snapshot (POST /v1/snapshot before a backup) must
	// not be told it exists.
	return fmt.Errorf("cluster: snode %d: snapshot aborted %d times by concurrent handovers; retry when migration settles", s.id, maxAttempts)
}

// trySnapshot runs one snapshot attempt against the last published cut;
// ok=false (with nil error) means a bucket died mid-pass and the caller
// should retry.  On ok it returns the cut now published, which the caller
// records as lastCut — the caller (snapshotPass) owns that field's guard,
// so the guarded access stays where snapMu is visibly held.
func (s *Snode) trySnapshot(lastCut uint64) (newCut uint64, ok bool, err error) {
	cut := s.dur.log.NextSeq()
	if cut <= lastCut {
		// No record landed since the published snapshot: it is already
		// current, and re-running would write into (and, on abort, delete)
		// the very directory the manifest references.
		return lastCut, true, nil
	}
	dir := filepath.Join(s.dur.snapRoot, strconv.FormatUint(cut, 10))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return lastCut, false, fmt.Errorf("cluster: snapshot: %w", err)
	}
	abort := func() {
		_ = os.RemoveAll(dir)
	}

	// Capture the metadata and the bucket set under one s.mu pass.
	type ownedSnap struct {
		p  hashspace.Partition
		bk *bucket
	}
	var (
		meta   snapMeta
		owned  []ownedSnap
		rparts []hashspace.Partition
	)
	s.mu.Lock()
	meta.NextLocal = s.nextLocal
	meta.HasBoot = s.hasBoot
	meta.Boot = s.boot
	for name, vs := range s.vnodes {
		rec := walVnodeRec{Name: name, Group: vs.group, Level: vs.level, Joined: vs.joined}
		for p, bk := range vs.parts {
			rec.Parts = append(rec.Parts, p)
			owned = append(owned, ownedSnap{p: p, bk: bk})
		}
		meta.Vnodes = append(meta.Vnodes, rec)
	}
	for p, ref := range s.tombs {
		meta.Tombs = append(meta.Tombs, routeEntry{Partition: p, Ref: ref})
	}
	for _, st := range s.replicas {
		meta.Lpdrs = append(meta.Lpdrs, *st)
	}
	for p, in := range s.inDoubt {
		// An open intent must survive the truncation of its (pre-cut)
		// journal record, or a crash before its resolution would replay
		// without it — reopening the stale-copy window the intent exists
		// to close.
		meta.Intents = append(meta.Intents, walMigIntentRec{Vnode: in.vnode, Partition: p, NewOwner: in.newOwner})
	}
	for p, b := range s.rparts {
		rparts = append(rparts, p)
		if b.provisional {
			meta.Rprov = append(meta.Rprov, p)
		}
	}
	s.mu.Unlock()

	stats := s.dur.log.Stats()

	// Serialize each owned bucket under its own lock — post-cut writes it
	// already absorbed replay idempotently on top.
	for _, o := range owned {
		o.bk.mu.RLock()
		if o.bk.state == bucketDead {
			o.bk.mu.RUnlock()
			abort()
			return lastCut, false, nil // moved or split away; retry with a fresh cut
		}
		payload := encodeSnap(&snapBucket{o.p, o.bk.kv.m}, (*snapBucket).fields)
		o.bk.mu.RUnlock()
		name := fmt.Sprintf("own-%d-%d.snap", o.p.Level, o.p.Prefix)
		if err := stats.WriteSnapshot(filepath.Join(dir, name), payload); err != nil {
			abort()
			return lastCut, false, err
		}
	}
	// Replica buckets are guarded by s.mu; serialize one at a time so the
	// stall is per-bucket, not per-store.  A bucket dropped since the
	// capture is simply skipped (its drop record is post-cut and replays).
	for _, p := range rparts {
		s.mu.Lock()
		b, ok := s.rparts[p]
		var payload []byte
		if ok {
			payload = encodeSnap(&snapBucket{p, b.kv.m}, (*snapBucket).fields)
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		name := fmt.Sprintf("repl-%d-%d.snap", p.Level, p.Prefix)
		if err := stats.WriteSnapshot(filepath.Join(dir, name), payload); err != nil {
			abort()
			return lastCut, false, err
		}
	}
	if err := stats.WriteSnapshot(filepath.Join(dir, "meta.snap"), encodeSnap(&meta, (*snapMeta).fields)); err != nil {
		abort()
		return lastCut, false, err
	}
	// Publish: fsync the log through the cut (records below it must not
	// be lost once the segments holding them are truncated), then flip
	// the manifest and drop what the snapshot covers.
	if err := s.dur.log.Sync(); err != nil {
		abort()
		return lastCut, false, err
	}
	if err := stats.WriteSnapshot(filepath.Join(s.dur.snapRoot, "MANIFEST"), encodeSnap(&snapManifest{cut}, (*snapManifest).fields)); err != nil {
		abort()
		return lastCut, false, err
	}
	if cut > 0 {
		if err := s.dur.log.TruncateThrough(cut - 1); err != nil {
			return cut, true, err
		}
	}
	// Retire superseded snapshot directories.
	ents, err := os.ReadDir(s.dur.snapRoot)
	if err != nil {
		return cut, true, nil
	}
	for _, e := range ents {
		if !e.IsDir() || e.Name() == strconv.FormatUint(cut, 10) {
			continue
		}
		if _, perr := strconv.ParseUint(e.Name(), 10, 64); perr == nil {
			_ = os.RemoveAll(filepath.Join(s.dur.snapRoot, e.Name()))
		}
	}
	return cut, true, nil
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
