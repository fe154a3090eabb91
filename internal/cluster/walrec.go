package cluster

import (
	"fmt"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// WAL record codecs.  Every durable mutation of an snode's local state is
// journaled as one typed record, encoded with the same varint helpers as
// the wire codecs in wire.go and framed (length + CRC) by internal/wal.
// A record's first field is its tag; tags share the number space with
// the wire message tags (see docs/WIRE.md) so a number can never mean two
// different things — the journal holds 32–63, wire messages 1–31 and 64
// upwards.  Like wire tags, they are a compatibility contract: never
// renumber, only append.  A record that journals what a wire message
// carried reuses that message's body function from wire.go.
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

// --- shared helpers ---

func appendOwnerRef(b []byte, ref ownerRef) []byte {
	b = appendVnodeName(b, ref.Vnode)
	return transport.AppendVarint(b, int64(ref.Host))
}

func readOwnerRef(r *transport.WireReader) ownerRef {
	var ref ownerRef
	ref.Vnode = readVnodeName(r)
	ref.Host = transport.NodeID(r.Varint())
	return ref
}

func appendKVMap(b []byte, m map[string][]byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(m)))
	for k, v := range m {
		b = transport.AppendString(b, k)
		b = transport.AppendBytes(b, v)
	}
	return b
}

func readKVMap(r *transport.WireReader) map[string][]byte {
	n := r.ArrayLen(2)
	m := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := r.String()
		v := r.Bytes()
		if r.Err() != nil {
			return m
		}
		m[k] = v
	}
	return m
}

func appendPartitions(b []byte, ps []hashspace.Partition) []byte {
	b = transport.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendPartition(b, p)
	}
	return b
}

func readPartitions(r *transport.WireReader) []hashspace.Partition {
	n := r.ArrayLen(2)
	if n == 0 {
		return nil
	}
	ps := make([]hashspace.Partition, n)
	for i := range ps {
		ps[i] = readPartition(r)
	}
	return ps
}

func appendLpdrState(b []byte, st lpdrState) []byte {
	b = appendGroup(b, st.Group)
	b = transport.AppendUvarint(b, uint64(st.Level))
	b = transport.AppendVarint(b, int64(st.Leader))
	b = transport.AppendUvarint(b, uint64(len(st.Members)))
	for _, m := range st.Members {
		b = appendVnodeName(b, m.Vnode)
		b = transport.AppendVarint(b, int64(m.Host))
		b = transport.AppendVarint(b, int64(m.Count))
	}
	return b
}

func readLpdrState(r *transport.WireReader) lpdrState {
	var st lpdrState
	st.Group = readGroup(r)
	st.Level = readLevel(r)
	st.Leader = transport.NodeID(r.Varint())
	if n := r.ArrayLen(3); n > 0 {
		st.Members = make([]memberInfo, n)
		for i := range st.Members {
			st.Members[i].Vnode = readVnodeName(r)
			st.Members[i].Host = transport.NodeID(r.Varint())
			st.Members[i].Count = int(r.Varint())
		}
	}
	return st
}

// --- record payloads ---

// walWriteRec journals one batch's mutations of one owned bucket.
type walWriteRec struct {
	Kind      dataOp
	Partition hashspace.Partition
	Items     []batchItem
}

func encodeWalWrite(buf []byte, kind dataOp, p hashspace.Partition, items []batchItem) []byte {
	buf = encodeWalWriteHeader(buf, kind, p, len(items))
	for _, it := range items {
		buf = transport.AppendString(buf, it.Key)
		buf = transport.AppendBytes(buf, it.Value)
	}
	return buf
}

// encodeWalWriteHeader starts a walWrite record whose count items the
// caller appends itself (string key, bytes value — the appendBatchItems
// layout), letting the batch apply loop encode inline without building
// an intermediate slice.
func encodeWalWriteHeader(buf []byte, kind dataOp, p hashspace.Partition, count int) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagWrite))
	buf = transport.AppendVarint(buf, int64(kind))
	buf = appendPartition(buf, p)
	return transport.AppendUvarint(buf, uint64(count))
}

func decodeWalWrite(r *transport.WireReader) walWriteRec {
	var rec walWriteRec
	rec.Kind = dataOp(r.Varint())
	rec.Partition = readPartition(r)
	rec.Items = readBatchItems(r)
	return rec
}

// walReplWriteRec journals one replica-plane write fan-in.
type walReplWriteRec struct {
	Kind dataOp
	Sets []replWriteSet
}

func encodeWalReplWrite(buf []byte, kind dataOp, sets []replWriteSet) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagReplWrite))
	buf = transport.AppendVarint(buf, int64(kind))
	buf = transport.AppendUvarint(buf, uint64(len(sets)))
	for _, set := range sets {
		buf = appendPartition(buf, set.Partition)
		buf = appendBatchItems(buf, set.Items)
	}
	return buf
}

func decodeWalReplWrite(r *transport.WireReader) walReplWriteRec {
	var rec walReplWriteRec
	rec.Kind = dataOp(r.Varint())
	if n := r.ArrayLen(3); n > 0 {
		rec.Sets = make([]replWriteSet, n)
		for i := range rec.Sets {
			rec.Sets[i].Partition = readPartition(r)
			rec.Sets[i].Items = readBatchItems(r)
		}
	}
	return rec
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

func encodeWalVnode(buf []byte, rec walVnodeRec) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagVnode))
	return appendVnodeRec(buf, rec)
}

func appendVnodeRec(buf []byte, rec walVnodeRec) []byte {
	buf = appendVnodeName(buf, rec.Name)
	buf = appendGroup(buf, rec.Group)
	buf = transport.AppendUvarint(buf, uint64(rec.Level))
	buf = transport.AppendBool(buf, rec.Joined)
	return appendPartitions(buf, rec.Parts)
}

func readVnodeRec(r *transport.WireReader) walVnodeRec {
	var rec walVnodeRec
	rec.Name = readVnodeName(r)
	rec.Group = readGroup(r)
	rec.Level = uint8(r.Uvarint())
	rec.Joined = r.Bool()
	rec.Parts = readPartitions(r)
	return rec
}

func encodeWalVnodeGone(buf []byte, name VnodeName) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagVnodeGone))
	return appendVnodeName(buf, name)
}

// encodeWalSplitAll journals one scope-wide split; replay re-buckets the
// affected vnodes' data by the next hash bit, exactly like the live
// handler (the re-bucketing is a pure function of the stored keys).
func encodeWalSplitAll(buf []byte, g core.GroupID, newLevel uint8) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagSplitAll))
	return appendSplitAll(buf, g, newLevel)
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

func encodeWalMigInstall(buf []byte, rec walMigInstallRec) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagMigInstall))
	buf = appendVnodeName(buf, rec.To)
	buf = appendGroup(buf, rec.Group)
	buf = transport.AppendUvarint(buf, uint64(rec.Level))
	buf = appendPartition(buf, rec.Partition)
	return appendKVMap(buf, rec.Data)
}

func decodeWalMigInstall(r *transport.WireReader) walMigInstallRec {
	var rec walMigInstallRec
	rec.To = readVnodeName(r)
	rec.Group = readGroup(r)
	rec.Level = uint8(r.Uvarint())
	rec.Partition = readPartition(r)
	rec.Data = readKVMap(r)
	return rec
}

// walBucketDropRec journals the sender-side retirement after a committed
// migration: the bucket dies behind a custody tombstone at NewOwner.
type walBucketDropRec struct {
	Vnode     VnodeName
	Partition hashspace.Partition
	NewOwner  ownerRef
}

func encodeWalBucketDrop(buf []byte, rec walBucketDropRec) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagBucketDrop))
	return appendBucketDropRec(buf, rec)
}

func appendBucketDropRec(buf []byte, rec walBucketDropRec) []byte {
	buf = appendVnodeName(buf, rec.Vnode)
	buf = appendPartition(buf, rec.Partition)
	return appendOwnerRef(buf, rec.NewOwner)
}

func readBucketDropRec(r *transport.WireReader) walBucketDropRec {
	var rec walBucketDropRec
	rec.Vnode = readVnodeName(r)
	rec.Partition = readPartition(r)
	rec.NewOwner = readOwnerRef(r)
	return rec
}

// encodeWalMigIntent journals phase one of a migration handover.  The
// payload is exactly a walBucketDropRec — the intent names the same
// (vnode, partition, new owner) triple the eventual drop will.
func encodeWalMigIntent(buf []byte, rec walBucketDropRec) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagMigIntent))
	return appendBucketDropRec(buf, rec)
}

// encodeWalMigIntentResolved closes an intent without a drop: the
// handover aborted (or recovery reverted it) and the bucket is live here.
func encodeWalMigIntentResolved(buf []byte, p hashspace.Partition) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagMigIntentResolved))
	return appendPartition(buf, p)
}

// encodeWalReplSync journals a replica bucket overwrite (full sync from
// the primary, or the re-homing push after a transfer).
func encodeWalReplSync(buf []byte, p hashspace.Partition, data map[string][]byte) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagReplSync))
	return appendBucket(buf, p, data)
}

func encodeWalReplDrop(buf []byte, ps []hashspace.Partition) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagReplDrop))
	return appendPartitions(buf, ps)
}

// encodeWalLpdr journals an LPDR replica refresh; replay rebuilds the
// group view and — when the recorded leader is this snode — reinstalls
// leadership after the replay completes.
func encodeWalLpdr(buf []byte, m lpdrSyncMsg) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagLpdr))
	return m.AppendWire(buf)
}

func encodeWalBoot(buf []byte, owner ownerRef) []byte {
	buf = transport.AppendUvarint(buf, uint64(walTagBoot))
	return appendOwnerRef(buf, owner)
}

// --- snapshot payloads ---

// snapVersion guards the snapshot encoding; bump on breaking layout
// changes so an old snapshot fails loudly instead of mis-decoding.
// Version 2 appended the unresolved migration intents to snapMeta;
// decoders still accept version-1 files (which simply carry no intents).
const snapVersion = 2

// snapOldestVersion is the oldest snapshot layout this node still reads.
const snapOldestVersion = 1

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

func encodeSnapMeta(buf []byte, m snapMeta) []byte {
	buf = transport.AppendUvarint(buf, snapVersion)
	buf = transport.AppendVarint(buf, int64(m.NextLocal))
	buf = transport.AppendBool(buf, m.HasBoot)
	buf = appendOwnerRef(buf, m.Boot)
	buf = transport.AppendUvarint(buf, uint64(len(m.Vnodes)))
	for _, v := range m.Vnodes {
		buf = appendVnodeRec(buf, v)
	}
	buf = transport.AppendUvarint(buf, uint64(len(m.Tombs)))
	for _, t := range m.Tombs {
		buf = appendPartition(buf, t.Partition)
		buf = appendOwnerRef(buf, t.Ref)
	}
	buf = transport.AppendUvarint(buf, uint64(len(m.Lpdrs)))
	for _, st := range m.Lpdrs {
		buf = appendLpdrState(buf, st)
	}
	buf = appendPartitions(buf, m.Rprov)
	buf = transport.AppendUvarint(buf, uint64(len(m.Intents)))
	for _, in := range m.Intents {
		buf = appendBucketDropRec(buf, in)
	}
	return buf
}

func decodeSnapMeta(payload []byte) (snapMeta, error) {
	r := transport.NewWireReader(payload)
	var m snapMeta
	v := r.Uvarint()
	if v < snapOldestVersion || v > snapVersion {
		return m, fmt.Errorf("cluster: snapshot meta version %d, this node speaks %d–%d", v, snapOldestVersion, snapVersion)
	}
	m.NextLocal = int(r.Varint())
	m.HasBoot = r.Bool()
	m.Boot = readOwnerRef(r)
	if n := r.ArrayLen(4); n > 0 {
		m.Vnodes = make([]walVnodeRec, n)
		for i := range m.Vnodes {
			m.Vnodes[i] = readVnodeRec(r)
		}
	}
	if n := r.ArrayLen(4); n > 0 {
		m.Tombs = make([]routeEntry, n)
		for i := range m.Tombs {
			m.Tombs[i].Partition = readPartition(r)
			m.Tombs[i].Ref = readOwnerRef(r)
		}
	}
	if n := r.ArrayLen(4); n > 0 {
		m.Lpdrs = make([]lpdrState, n)
		for i := range m.Lpdrs {
			m.Lpdrs[i] = readLpdrState(r)
		}
	}
	m.Rprov = readPartitions(r)
	if v >= 2 {
		if n := r.ArrayLen(4); n > 0 {
			m.Intents = make([]walBucketDropRec, n)
			for i := range m.Intents {
				m.Intents[i] = readBucketDropRec(r)
			}
		}
	}
	return m, r.Err()
}

// snapBucket is one partition's contents in a snapshot file.
type snapBucket struct {
	Partition hashspace.Partition
	Data      map[string][]byte
}

func encodeSnapBucket(buf []byte, p hashspace.Partition, data map[string][]byte) []byte {
	buf = transport.AppendUvarint(buf, snapVersion)
	return appendBucket(buf, p, data)
}

func decodeSnapBucket(payload []byte) (snapBucket, error) {
	r := transport.NewWireReader(payload)
	if v := r.Uvarint(); v < snapOldestVersion || v > snapVersion {
		return snapBucket{}, fmt.Errorf("cluster: snapshot bucket version %d, this node speaks %d–%d", v, snapOldestVersion, snapVersion)
	}
	p, data := readBucket(r)
	return snapBucket{Partition: p, Data: data}, r.Err()
}

// encodeManifest/decodeManifest frame the snapshot manifest: the replay
// cut (the first WAL sequence NOT covered by the snapshot).
func encodeManifest(cut uint64) []byte {
	buf := transport.AppendUvarint(nil, snapVersion)
	return transport.AppendUvarint(buf, cut)
}

func decodeManifest(payload []byte) (uint64, error) {
	r := transport.NewWireReader(payload)
	if v := r.Uvarint(); v < snapOldestVersion || v > snapVersion {
		return 0, fmt.Errorf("cluster: snapshot manifest version %d, this node speaks %d–%d", v, snapOldestVersion, snapVersion)
	}
	cut := r.Uvarint()
	return cut, r.Err()
}
