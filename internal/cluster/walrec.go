package cluster

import (
	"fmt"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Journal and snapshot records.  Every durable mutation of an snode's
// local state is journaled as one typed record, framed (length + CRC) by
// internal/wal.  Like a wire message, a record's layout is written once,
// as a fields walk (see the walker in wire.go) that encodeWal… appends
// from and replay (applyWalRecord) reads through; a record that journals
// what a wire message carried reuses that message's walk.  A record's
// first field is its tag; tags share the number space with the wire
// message tags (see docs/WIRE.md) so a number can never mean two
// different things — the journal holds 32–63, wire messages 1–31 and 64
// upwards.  Like wire tags, they are a compatibility contract: never
// renumber, only append.
//
// Replay applies records in sequence order on top of the latest
// snapshot; every record is idempotent (set/delete semantics, guarded
// lifecycle transitions), so a record may be replayed even though the
// snapshot it lands on already reflects it.

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
)

// --- journal records ---

// encodeWal appends one journal record: its tag, then the record's fields.
func encodeWal[T any](buf []byte, tag uint16, rec *T, fields func(*T, *walker)) []byte {
	return appendWalk(transport.AppendUvarint(buf, uint64(tag)), rec, fields)
}

// walWriteRec journals one batch's mutations of one owned bucket.
type walWriteRec struct {
	Kind      dataOp
	Partition hashspace.Partition
	Items     []batchItem
}

func (rec *walWriteRec) fields(w *walker) {
	w.op(&rec.Kind)
	w.partition(&rec.Partition)
	for i := range sliceOf(w, &rec.Items, 2) {
		rec.Items[i].fields(w)
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

func (rec *walReplWriteRec) fields(w *walker) {
	w.op(&rec.Kind)
	for i := range sliceOf(w, &rec.Sets, 3) {
		rec.Sets[i].journalFields(w)
	}
}

func encodeWalReplWrite(buf []byte, kind dataOp, sets []replWriteSet) []byte {
	return encodeWal(buf, walTagReplWrite, &walReplWriteRec{Kind: kind, Sets: sets}, (*walReplWriteRec).fields)
}

// walVnodeRec journals a vnode allocation.  Parts is non-empty only for
// the bootstrap vnode, which is born owning the Pmin-way pre-split.
type walVnodeRec struct {
	Name   VnodeName
	Group  core.GroupID
	Level  uint8
	Joined bool
	Parts  []hashspace.Partition
}

func (rec *walVnodeRec) fields(w *walker) {
	rec.Name.fields(w)
	w.group(&rec.Group)
	w.level(&rec.Level)
	w.bool(&rec.Joined)
	w.partitions(&rec.Parts)
}

func encodeWalVnode(buf []byte, rec walVnodeRec) []byte {
	return encodeWal(buf, walTagVnode, &rec, (*walVnodeRec).fields)
}

func encodeWalVnodeGone(buf []byte, name VnodeName) []byte {
	return encodeWal(buf, walTagVnodeGone, &name, (*VnodeName).fields)
}

// encodeWalSplitAll journals one scope-wide split; replay re-buckets the
// affected vnodes' data by the next hash bit, exactly like the live
// handler (the re-bucketing is a pure function of the stored keys).
func encodeWalSplitAll(buf []byte, m splitAllReq) []byte {
	return encodeWal(buf, walTagSplitAll, &m, (*splitAllReq).journalFields)
}

// walMigInstallRec journals a live-migration commit at the receiver with
// the bucket's FULL contents (staging folded with the final delta), so
// replay never depends on the volatile staging state: a migration whose
// commit record is durable installs completely; one whose commit never
// landed leaves the partition with its old owner, which aborts and
// stays live.
type walMigInstallRec struct {
	To        VnodeName
	Group     core.GroupID
	Level     uint8
	Partition hashspace.Partition
	Data      map[string][]byte
}

func (rec *walMigInstallRec) fields(w *walker) {
	rec.To.fields(w)
	w.group(&rec.Group)
	w.level(&rec.Level)
	w.partition(&rec.Partition)
	w.kvmap(&rec.Data)
}

func encodeWalMigInstall(buf []byte, rec walMigInstallRec) []byte {
	return encodeWal(buf, walTagMigInstall, &rec, (*walMigInstallRec).fields)
}

// walBucketDropRec journals the sender-side retirement after a committed
// migration: the bucket dies behind a custody tombstone at NewOwner.
type walBucketDropRec struct {
	Vnode     VnodeName
	Partition hashspace.Partition
	NewOwner  ownerRef
}

func (rec *walBucketDropRec) fields(w *walker) {
	rec.Vnode.fields(w)
	w.partition(&rec.Partition)
	rec.NewOwner.fields(w)
}

func encodeWalBucketDrop(buf []byte, rec walBucketDropRec) []byte {
	return encodeWal(buf, walTagBucketDrop, &rec, (*walBucketDropRec).fields)
}

// encodeWalMigIntent journals phase one of a migration handover.  The
// payload is exactly a walBucketDropRec — the intent names the same
// (vnode, partition, new owner) triple the eventual drop will.
func encodeWalMigIntent(buf []byte, rec walBucketDropRec) []byte {
	return encodeWal(buf, walTagMigIntent, &rec, (*walBucketDropRec).fields)
}

// encodeWalMigIntentResolved closes an intent without a drop: the
// handover aborted (or recovery reverted it) and the bucket is live here.
func encodeWalMigIntentResolved(buf []byte, p hashspace.Partition) []byte {
	return encodeWal(buf, walTagMigIntentResolved, &p, partitionFields)
}

// encodeWalReplSync journals a replica bucket overwrite (full sync from
// the primary, or the re-homing push after a transfer).
func encodeWalReplSync(buf []byte, b snapBucket) []byte {
	return encodeWal(buf, walTagReplSync, &b, (*snapBucket).fields)
}

func encodeWalReplDrop(buf []byte, m replDropMsg) []byte {
	return encodeWal(buf, walTagReplDrop, &m, (*replDropMsg).fields)
}

// encodeWalLpdr journals an LPDR replica refresh; replay rebuilds the
// group view and — when the recorded leader is this snode — reinstalls
// leadership after the replay completes.
func encodeWalLpdr(buf []byte, m lpdrSyncMsg) []byte {
	return encodeWal(buf, walTagLpdr, &m, (*lpdrSyncMsg).fields)
}

func encodeWalBoot(buf []byte, owner ownerRef) []byte {
	return encodeWal(buf, walTagBoot, &owner, (*ownerRef).fields)
}

// --- snapshot files ---

// snapVersion guards the snapshot encoding; bump on breaking layout
// changes so an old snapshot fails loudly instead of mis-decoding.
// Version 2 appended the unresolved migration intents to snapMeta;
// decoders still accept version-1 files (which simply carry no intents).
const snapVersion = 2

// snapOldestVersion is the oldest snapshot layout this node still reads.
const snapOldestVersion = 1

// encodeSnap lays out one snapshot file: the layout version, then v's
// fields.
func encodeSnap[T any](v *T, fields func(*T, *walker)) []byte {
	w := walker{b: transport.AppendUvarint(nil, snapVersion), snapV: snapVersion}
	fields(v, &w)
	return w.b
}

// decodeSnap reads one snapshot file back, refusing a layout version this
// node does not speak; what names the file in that error.  The walk sees
// the file's version as w.snapV.
func decodeSnap[T any](what string, payload []byte, fields func(*T, *walker)) (v T, err error) {
	w := walker{r: transport.NewWireReader(payload)}
	w.snapV = w.r.Uvarint()
	if w.snapV < snapOldestVersion || w.snapV > snapVersion {
		return v, fmt.Errorf("cluster: snapshot %s version %d, this node speaks %d–%d", what, w.snapV, snapOldestVersion, snapVersion)
	}
	fields(&v, &w)
	return v, w.r.Err()
}

// snapMeta is the snode-level metadata captured by one snapshot pass:
// everything except the bucket contents, which live in per-bucket files.
type snapMeta struct {
	NextLocal int
	HasBoot   bool
	Boot      ownerRef
	Vnodes    []walVnodeRec // one per hosted vnode, Parts = its partitions
	Tombs     []routeEntry  // custody pointers (Replicas unused)
	Lpdrs     []lpdrState
	Rprov     []hashspace.Partition // provisional (write-created) replica buckets
	Intents   []walBucketDropRec    // unresolved migration intents (v2+)
}

func (m *snapMeta) fields(w *walker) {
	w.int(&m.NextLocal)
	w.bool(&m.HasBoot)
	m.Boot.fields(w)
	for i := range sliceOf(w, &m.Vnodes, 4) {
		m.Vnodes[i].fields(w)
	}
	for i := range sliceOf(w, &m.Tombs, 4) {
		m.Tombs[i].tombFields(w)
	}
	for i := range sliceOf(w, &m.Lpdrs, 4) {
		m.Lpdrs[i].fields(w)
	}
	w.partitions(&m.Rprov)
	if w.snapV >= 2 {
		for i := range sliceOf(w, &m.Intents, 4) {
			m.Intents[i].fields(w)
		}
	}
}

// snapBucket is one partition with its full contents: a snapshot bucket
// file, and the body of the walTagReplSync journal record.
type snapBucket struct {
	Partition hashspace.Partition
	Data      map[string][]byte
}

func (b *snapBucket) fields(w *walker) {
	w.partition(&b.Partition)
	w.kvmap(&b.Data)
}

// snapManifest is the snapshot manifest: the replay cut (the first WAL
// sequence NOT covered by the snapshot).
type snapManifest struct {
	Cut uint64
}

func (m *snapManifest) fields(w *walker) { w.u64(&m.Cut) }
