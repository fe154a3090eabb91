package cluster

import (
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Journal records.  Every durable mutation of an snode's local state is
// one typed record, framed (length + CRC) by internal/wal, and a record
// is three things, each written once: its tag (walTag), its layout (a
// fields walk, see the walker in wire.go) and its meaning (applyLocked).
// The live handler builds the record and, under s.mu, applies and
// journals it (Snode.mutate; applyLocked then Snode.journal where more
// must happen under the same lock); recovery reads a tag, takes that
// tag's row of walRecords, walks the bytes into a fresh record and calls
// the same applyLocked — a restart re-runs the code that ran, not a
// transcription of it.  A snapshot is a file of these same records
// (Snode.snapshotRecords), replayed the same way before the log tail.
// A wire message that is journaled as it arrives (replDropMsg,
// lpdrSyncMsg, bootstrapInfo) is its own record.  Two handlers journal,
// wait for the record to be durable and only then apply —
// handleMigCommit and promotePartition, whose installs start serving at
// once and must not have happened if the wait fails.
//
// Not on this path: handleBatch's share of walTagWrite.  It streams a
// bucket's items into the journal while it applies them
// (encodeWalWriteHeader), so only replay goes through
// walWriteRec.applyLocked.
//
// A record's first field is its tag; tags share the number space with the
// wire message tags (see docs/WIRE.md) so a number can never mean two
// different things — the journal holds 32–63, wire messages 1–31 and 64
// upwards.  Like wire tags, they are a compatibility contract: never
// renumber, only append.
//
// Replay applies records in sequence order on top of the latest
// snapshot; every record is idempotent (set/delete semantics, guarded
// lifecycle transitions), so a record may be replayed even though the
// snapshot it lands on already reflects it.  Only tag 45 is never
// journaled: it closes a snapshot file.

const (
	walTagWrite      uint16 = 32 // owned-bucket mutations (one batch's share of one bucket)
	walTagReplWrite  uint16 = 33 // replica-store mutations (one replWriteReq)
	walTagVnode      uint16 = 34 // vnode allocated (bootstrap carries its pre-split partitions)
	walTagVnodeGone  uint16 = 35 // vnode dissolved or abandoned
	walTagSplitAll   uint16 = 36 // scope-wide binary split of a group's partitions
	walTagMigInstall uint16 = 37 // live-migration commit: full bucket installed
	walTagBucketDrop uint16 = 38 // partition migrated away; custody tombstone left
	walTagReplSync   uint16 = 39 // replica bucket overwritten with the primary's copy
	walTagReplDrop   uint16 = 40 // replica buckets discarded
	walTagLpdr       uint16 = 41 // LPDR replica refresh (group membership/level/leader)
	walTagBoot       uint16 = 42 // bootstrap fallback route learned
	// Two-phase migration handover (see migrate.go): an intent is
	// journaled right before the receiver may commit; the bucket-drop
	// record (tag 38) resolves it on success, tag 44 on abort.  A replayed
	// intent with neither resolution recovers the bucket frozen and
	// in-doubt.
	walTagMigIntent         uint16 = 43 // pre-commit handover intent (same payload as tag 38)
	walTagMigIntentResolved uint16 = 44 // handover aborted or reverted; intent closed
	walTagSnapEnd           uint16 = 45 // last record of a snapshot file: replay cut and what no other record carries
	walTagReplSplit         uint16 = 46 // replica bucket split in place down to a partition
)

// walRecord is one journaled mutation.
type walRecord interface {
	walTag() uint16
	fields(*walker)
	// applyLocked performs the mutation on s.  The caller holds s.mu — the
	// live handler and recovery alike; bucket mutexes are taken here.
	applyLocked(s *Snode)
}

// walRecords is the record table: what recovery makes of every journal
// tag.  TestTagRegistry requires one row per walTag constant, and
// TestDiskFormatGolden requires golden bytes for each.
var walRecords = []struct {
	tag uint16
	new func() walRecord
}{
	{walTagWrite, func() walRecord { return new(walWriteRec) }},
	{walTagReplWrite, func() walRecord { return new(walReplWriteRec) }},
	{walTagVnode, func() walRecord { return new(walVnodeRec) }},
	{walTagVnodeGone, func() walRecord { return new(walVnodeGoneRec) }},
	{walTagSplitAll, func() walRecord { return new(walSplitAllRec) }},
	{walTagMigInstall, func() walRecord { return new(walMigInstallRec) }},
	{walTagBucketDrop, func() walRecord { return new(walBucketDropRec) }},
	{walTagReplSync, func() walRecord { return new(walReplSyncRec) }},
	{walTagReplDrop, func() walRecord { return new(replDropMsg) }},
	{walTagLpdr, func() walRecord { return new(lpdrSyncMsg) }},
	{walTagBoot, func() walRecord { return new(bootstrapInfo) }},
	{walTagMigIntent, func() walRecord { return new(walMigIntentRec) }},
	{walTagMigIntentResolved, func() walRecord { return new(walMigIntentResolvedRec) }},
	{walTagSnapEnd, func() walRecord { return new(walSnapEndRec) }},
	{walTagReplSplit, func() walRecord { return new(walReplSplitRec) }},
}

// appendRecord appends rec's journal bytes — its tag, then its fields
// walk — to b.
func appendRecord(b []byte, rec walRecord) []byte {
	w := walker{b: transport.AppendUvarint(b, uint64(rec.walTag()))}
	rec.fields(&w)
	return w.b
}

// walWriteRec journals one batch's mutations of one owned bucket.
type walWriteRec struct {
	Kind      dataOp
	Partition hashspace.Partition
	Items     []batchItem
}

func (*walWriteRec) walTag() uint16 { return walTagWrite }

func (rec *walWriteRec) fields(w *walker) {
	w.op(&rec.Kind)
	w.partition(&rec.Partition)
	for i := range sliceOf(w, &rec.Items, 2) {
		rec.Items[i].fields(w)
	}
}

// applyLocked runs at replay only (see the file header).  It applies only
// while the partition is owned at exactly this level: ownership
// transitions are journaled too, so a write that replays against a later
// state (bucket dropped, split deeper) is already reflected there.
func (rec *walWriteRec) applyLocked(s *Snode) {
	if ref, ok := s.owned[rec.Partition]; ok {
		ref.bk.mu.Lock()
		ref.bk.kv.apply(rec.Kind, rec.Items)
		ref.bk.mu.Unlock()
	}
}

// encodeWalWriteHeader starts a walWriteRec whose count items the caller
// appends itself (string key, bytes value — batchItem's fields).  It is
// the one layout spelled outside a fields walk: handleBatch picks a
// bucket's items out of the batch while it applies them, and journals
// each as it goes instead of first building the slice a walk would need.
// TestDiskFormatGolden holds the two spellings to the same bytes.
func encodeWalWriteHeader(buf []byte, kind dataOp, p hashspace.Partition, count int) []byte {
	w := walker{b: transport.AppendUvarint(buf, uint64(walTagWrite))}
	w.op(&kind)
	w.partition(&p)
	w.count(count, 2)
	return w.b
}

// walReplWriteRec journals one replica-plane write fan-in.
type walReplWriteRec struct {
	Kind dataOp
	Sets []replWriteSet
}

func (*walReplWriteRec) walTag() uint16 { return walTagReplWrite }

func (rec *walReplWriteRec) fields(w *walker) {
	w.op(&rec.Kind)
	for i := range sliceOf(w, &rec.Sets, 3) {
		rec.Sets[i].journalFields(w)
	}
}

// applyLocked folds the write sets into the copies held here; a set
// without one is not stored (see handleReplWrite).
func (rec *walReplWriteRec) applyLocked(s *Snode) {
	for _, set := range rec.Sets {
		if b, ok := s.rparts[set.Partition]; ok {
			b.kv.apply(rec.Kind, set.Items)
		}
	}
}

// walVnodeRec journals a vnode allocation, and is how a snapshot keeps a
// hosted vnode (Parts then lists its partitions).  In the log Parts is
// non-empty only for the bootstrap vnode, which is born owning the
// Pmin-way pre-split.
type walVnodeRec struct {
	Name   VnodeName
	Group  core.GroupID
	Level  uint8
	Joined bool
	Parts  []hashspace.Partition
}

func (*walVnodeRec) walTag() uint16 { return walTagVnode }

func (rec *walVnodeRec) fields(w *walker) {
	rec.Name.fields(w)
	w.group(&rec.Group)
	w.level(&rec.Level)
	w.bool(&rec.Joined)
	w.partitions(&rec.Parts)
}

// applyLocked allocates the vnode with an empty bucket per partition,
// keeping nextLocal ahead of every local name ever handed out.
func (rec *walVnodeRec) applyLocked(s *Snode) {
	if rec.Name.Snode == s.id && rec.Name.Local >= s.nextLocal {
		s.nextLocal = rec.Name.Local + 1
	}
	if _, dup := s.vnodes[rec.Name]; dup {
		return
	}
	vs := &vnodeState{
		name: rec.Name, group: rec.Group, level: rec.Level, joined: rec.Joined,
		parts: make(map[hashspace.Partition]*bucket, len(rec.Parts)),
	}
	for _, p := range rec.Parts {
		bk := newBucket(nil)
		vs.parts[p] = bk
		s.setOwnedLocked(p, vs, bk)
	}
	s.vnodes[rec.Name] = vs
}

// walVnodeGoneRec journals a vnode dissolved after shipping its partitions
// away, or abandoned before it joined.
type walVnodeGoneRec struct{ Name VnodeName }

func (*walVnodeGoneRec) walTag() uint16 { return walTagVnodeGone }

func (rec *walVnodeGoneRec) fields(w *walker) { rec.Name.fields(w) }

func (rec *walVnodeGoneRec) applyLocked(s *Snode) {
	if vs, ok := s.vnodes[rec.Name]; ok {
		for p, bk := range vs.parts {
			s.delOwnedLocked(p, bk)
		}
		delete(s.vnodes, rec.Name)
	}
}

// walSplitAllRec journals one scope-wide split (§2.5 materialized on real
// data): what a splitAllReq orders, minus the request's envelope.  The
// record is small because the re-bucketing is a pure function of the
// stored keys.
type walSplitAllRec splitAllReq

func (*walSplitAllRec) walTag() uint16 { return walTagSplitAll }

func (rec *walSplitAllRec) fields(w *walker) {
	w.group(&rec.Group)
	w.level(&rec.NewLevel)
}

// applyLocked splits every joined vnode of the group below NewLevel in
// two, re-bucketing stored keys by their next hash bit.  The children
// start at their parent's write version and inherit the hosts of its
// copies (`placed`), so every host holding the parent's copy keeps being
// fed until anti-entropy hands the children off (the set is volatile:
// empty at replay).
func (rec *walSplitAllRec) applyLocked(s *Snode) {
	for _, vs := range s.vnodes {
		if !vs.joined || vs.group != rec.Group || vs.level >= rec.NewLevel {
			continue
		}
		next := make(map[hashspace.Partition]*bucket, 2*len(vs.parts))
		for p, bk := range vs.parts {
			lo, hi := p.Split()
			held := s.placed[p]
			bk.mu.Lock()
			loB, hiB := splitStore(p, bk.kv)
			next[lo] = &bucket{kv: loB, ver: bk.ver}
			next[hi] = &bucket{kv: hiB, ver: bk.ver}
			// The parent dies under its own lock: a batch that resolved it
			// before the split re-classifies against the children.
			bk.state = bucketDead
			bk.kv = nil
			bk.mu.Unlock()
			s.delOwnedLocked(p, bk)
			s.setOwnedLocked(lo, vs, next[lo])
			s.setOwnedLocked(hi, vs, next[hi])
			s.setPlacedLocked(p, nil)
			s.setPlacedLocked(lo, held)
			s.setPlacedLocked(hi, held)
		}
		vs.parts = next
		vs.level = rec.NewLevel
	}
}

// splitStore re-buckets the keys of partition p's store between p's two
// halves by their next hash bit — a primary's split and a replica copy's
// split in place alike.
func splitStore(p hashspace.Partition, kv *kvStore) (lo, hi *kvStore) {
	loP, _ := p.Split()
	lo, hi = newStore(nil), newStore(nil)
	for k, v := range kv.m {
		if loP.Contains(hashspace.HashString(k)) {
			lo.put(k, v)
		} else {
			hi.put(k, v)
		}
	}
	return lo, hi
}

// walMigInstallRec journals a replica copy becoming the live owned
// partition of vnode To — a move's commit at the receiver, or a failover
// promotion — with the bucket's FULL contents (the copy folded with a
// move's final delta), so replay never depends on the delta: a move whose
// commit record is durable installs completely; one whose commit never
// landed leaves the partition with its old owner, which aborts and stays
// live.  Live, Data is the store the handler already holds, digest and
// all; recovery hashes the decoded map once.
type walMigInstallRec struct {
	To        VnodeName
	Group     core.GroupID
	Level     uint8
	Partition hashspace.Partition
	Data      *kvStore
}

func (*walMigInstallRec) walTag() uint16 { return walTagMigInstall }

func (rec *walMigInstallRec) fields(w *walker) {
	rec.To.fields(w)
	w.group(&rec.Group)
	w.level(&rec.Level)
	w.partition(&rec.Partition)
	w.store(&rec.Data)
}

// applyLocked makes Data the live bucket: replica-store cleanup (the copy
// left it as the record was journaled), ownership index, level/group
// adoption, custody cleanup.
func (rec *walMigInstallRec) applyLocked(s *Snode) {
	s.dropReplicaLocked(rec.Partition)
	vs, ok := s.vnodes[rec.To]
	if !ok {
		return
	}
	if old, ok := vs.parts[rec.Partition]; ok {
		old.setState(bucketDead) // a re-install supersedes the previous bucket
	}
	bk := newBucket(rec.Data)
	vs.parts[rec.Partition] = bk
	s.setOwnedLocked(rec.Partition, vs, bk)
	vs.level = rec.Level
	vs.group = rec.Group
	// Owning again supersedes any old custody pointer for this region.
	s.delTombLocked(rec.Partition)
}

// walBucketDropRec journals the sender-side retirement after a committed
// migration: the bucket dies behind a custody tombstone at NewOwner.
type walBucketDropRec struct {
	Vnode     VnodeName
	Partition hashspace.Partition
	NewOwner  ownerRef
}

func (*walBucketDropRec) walTag() uint16 { return walTagBucketDrop }

func (rec *walBucketDropRec) fields(w *walker) {
	rec.Vnode.fields(w)
	w.partition(&rec.Partition)
	rec.NewOwner.fields(w)
}

func (rec *walBucketDropRec) applyLocked(s *Snode) {
	if vs, ok := s.vnodes[rec.Vnode]; ok {
		if bk, ok := vs.parts[rec.Partition]; ok {
			bk.setState(bucketDead)
			delete(vs.parts, rec.Partition)
			s.delOwnedLocked(rec.Partition, bk)
		}
	}
	s.setTombLocked(rec.Partition, rec.NewOwner)
	delete(s.inDoubt, rec.Partition) // the drop resolves any open intent
}

// walMigIntentRec journals phase one of a migration handover.  The
// payload is exactly a walBucketDropRec — the intent names the same
// (vnode, partition, new owner) triple the eventual drop will.
type walMigIntentRec walBucketDropRec

func (*walMigIntentRec) walTag() uint16 { return walTagMigIntent }

func (rec *walMigIntentRec) fields(w *walker) { (*walBucketDropRec)(rec).fields(w) }

func (rec *walMigIntentRec) applyLocked(s *Snode) {
	s.inDoubt[rec.Partition] = &migIntent{vnode: rec.Vnode, newOwner: rec.NewOwner}
}

// walMigIntentResolvedRec closes an intent without a drop: the handover
// aborted (or recovery reverted it) and the bucket is live here.
type walMigIntentResolvedRec struct{ Partition hashspace.Partition }

func (*walMigIntentResolvedRec) walTag() uint16 { return walTagMigIntentResolved }

func (rec *walMigIntentResolvedRec) fields(w *walker) { w.partition(&rec.Partition) }

func (rec *walMigIntentResolvedRec) applyLocked(s *Snode) { delete(s.inDoubt, rec.Partition) }

// walReplSyncRec journals a replica bucket overwrite (full sync from the
// primary, or the re-homing push after a transfer), and is how a
// snapshot keeps a replica bucket.  Data is a store for the reason
// walMigInstallRec's is.
type walReplSyncRec struct {
	Partition hashspace.Partition
	Data      *kvStore
}

func (*walReplSyncRec) walTag() uint16 { return walTagReplSync }

func (rec *walReplSyncRec) fields(w *walker) {
	w.partition(&rec.Partition)
	w.store(&rec.Data)
}

// applyLocked makes Data the copy of Partition, in place of whatever
// copy covered or fell within it.
func (rec *walReplSyncRec) applyLocked(s *Snode) {
	s.dropReplicaLocked(rec.Partition)
	s.rparts[rec.Partition] = &replicaBucket{kv: rec.Data}
}

// walReplSplitRec journals a replica copy split in place down to
// Partition (Snode.holdFedLocked, or a failover election): the split is a
// live decision on metadata the journal does not keep.
type walReplSplitRec struct{ Partition hashspace.Partition }

func (*walReplSplitRec) walTag() uint16 { return walTagReplSplit }

func (rec *walReplSplitRec) fields(w *walker) { w.partition(&rec.Partition) }

func (rec *walReplSplitRec) applyLocked(s *Snode) { s.splitReplicaDownLocked(rec.Partition) }

// --- wire messages journaled as they arrive (fields walks in wire.go) ---

func (*replDropMsg) walTag() uint16 { return walTagReplDrop }

func (m *replDropMsg) applyLocked(s *Snode) {
	for _, p := range m.Partitions {
		s.dropReplicaLocked(p)
		delete(s.installing, p) // a move given up: its install is refused
	}
}

func (*lpdrSyncMsg) walTag() uint16 { return walTagLpdr }

// applyLocked installs the LPDR replica and binds the member vnodes
// hosted here to the group — which completes a join.  Leadership is not
// installed here: a leader takes office by groupInit, and recovery
// reinstalls it once the whole log has replayed (openDurabilityLocked).
//
// Groups only split and levels only deepen, so a sync that would move a
// hosted, joined member to a shallower level or to an ancestor group is
// stale, and is ignored whole: a parent leader's sync can reach a member
// host after the child group's sync overtook it on another connection,
// and applying it would re-bind the member to the dissolved parent and
// re-create the parent's replica.  Replay skips the same record, because
// it meets the same state.
func (m *lpdrSyncMsg) applyLocked(s *Snode) {
	st := m.State
	for _, mem := range st.Members {
		if vs, ok := s.vnodes[mem.Vnode]; ok && mem.Host == s.id && vs.joined &&
			(st.Level < vs.level || st.Group.Len < vs.group.Len) {
			return
		}
	}
	s.replicas[st.Group] = &st
	for _, d := range m.Dissolved {
		delete(s.replicas, d)
	}
	for _, mem := range st.Members {
		if vs, ok := s.vnodes[mem.Vnode]; ok && mem.Host == s.id {
			vs.group = st.Group
			vs.level = st.Level
			vs.joined = true
		}
	}
}

func (*bootstrapInfo) walTag() uint16 { return walTagBoot }

func (m *bootstrapInfo) applyLocked(s *Snode) {
	s.boot = m.Owner
	s.hasBoot = true
}

// walSnapEndRec closes a snapshot file, and only a snapshot file: the
// state no other record carries, and Cut, the first log sequence the
// snapshot does not cover.  Recovery refuses a snapshot that lacks it.
// Partial is always written empty; a snapshot of an older release listed
// there the replica buckets that writes had created without a full sync,
// and recovery discards those, since a partial copy must not vote.
type walSnapEndRec struct {
	NextLocal int
	Partial   []hashspace.Partition
	Cut       uint64
}

func (*walSnapEndRec) walTag() uint16 { return walTagSnapEnd }

func (rec *walSnapEndRec) fields(w *walker) {
	w.int(&rec.NextLocal)
	w.partitions(&rec.Partial)
	w.u64(&rec.Cut)
}

// applyLocked restores the local-name counter.
func (rec *walSnapEndRec) applyLocked(s *Snode) {
	s.nextLocal = max(s.nextLocal, rec.NextLocal)
	for _, p := range rec.Partial {
		delete(s.rparts, p)
	}
}
