package cluster

import (
	"math"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Binary codecs for every protocol message.  Each message implements
// transport.WireMessage and registers its decoder under the same tag; the
// fabric has no other encoding, so a message without a codec cannot be
// sent.  Where a message and a journal or snapshot record carry the same
// payload (walrec.go), both sides call one append…/read… body function.
//
// Tags are a wire-compatibility contract: never renumber, only append
// (internal/analysis/tags.lock).  Wire tags are 1–31 and 64 upwards; the
// journal holds 32–63.  Integers are varints (zigzag for the signed
// NodeID/int fields — the client endpoint id is negative); byte slices
// and strings are length-prefixed.  Decoders read bytes from outside the
// process: every count goes through ArrayLen and every partition and
// level is range-checked.

const (
	wireTagLookupReq    uint16 = 1
	wireTagLookupResp   uint16 = 2
	wireTagBatchReq     uint16 = 3
	wireTagBatchResp    uint16 = 4
	wireTagReplWriteReq uint16 = 5
	// wireTagReplWriteResp carries ackResp, the one {Op, Err} response.
	// The registry is append-only, so the tag keeps the name of the first
	// acknowledgement that used it; 12, 14 and 16 are retired.
	wireTagReplWriteResp    uint16 = 6
	wireTagReplProbeReq     uint16 = 7
	wireTagReplProbeResp    uint16 = 8
	wireTagPingReq          uint16 = 9
	wireTagPingResp         uint16 = 10
	wireTagMigBeginReq      uint16 = 11
	wireTagMigChunkReq      uint16 = 13
	wireTagMigCommitReq     uint16 = 15
	wireTagMigAbort         uint16 = 17
	wireTagLoadReq          uint16 = 18
	wireTagLoadResp         uint16 = 19
	wireTagCreateVnodeReq   uint16 = 64
	wireTagCreateVnodeResp  uint16 = 65
	wireTagJoinGroupReq     uint16 = 66
	wireTagJoinGroupResp    uint16 = 67
	wireTagLeaveVnodeReq    uint16 = 68
	wireTagLeaveVnodeResp   uint16 = 69
	wireTagSplitAllReq      uint16 = 70
	wireTagTransferReq      uint16 = 71
	wireTagTransferResp     uint16 = 72
	wireTagShipVnodeReq     uint16 = 73
	wireTagGroupInit        uint16 = 74
	wireTagLpdrSync         uint16 = 75
	wireTagBootstrapInfo    uint16 = 76
	wireTagSnodeLeaving     uint16 = 77
	wireTagSnodeRecovered   uint16 = 78
	wireTagViewUpdate       uint16 = 79
	wireTagReplSyncReq      uint16 = 80
	wireTagReplDrop         uint16 = 81
	wireTagPromoteQueryReq  uint16 = 82
	wireTagPromoteQueryResp uint16 = 83
	wireTagPromoteOrderReq  uint16 = 84
	wireTagOverlapQueryReq  uint16 = 85
	wireTagOverlapQueryResp uint16 = 86
)

func init() {
	transport.RegisterWire(wireTagLookupReq, decodeLookupReq)
	transport.RegisterWire(wireTagLookupResp, decodeLookupResp)
	transport.RegisterWire(wireTagBatchReq, decodeBatchReq)
	transport.RegisterWire(wireTagBatchResp, decodeBatchResp)
	transport.RegisterWire(wireTagReplWriteReq, decodeReplWriteReq)
	transport.RegisterWire(wireTagReplWriteResp, decodeAckResp)
	transport.RegisterWire(wireTagReplProbeReq, decodeReplProbeReq)
	transport.RegisterWire(wireTagReplProbeResp, decodeReplProbeResp)
	transport.RegisterWire(wireTagPingReq, decodePingReq)
	transport.RegisterWire(wireTagPingResp, decodePingResp)
	transport.RegisterWire(wireTagMigBeginReq, decodeMigBeginReq)
	transport.RegisterWire(wireTagMigChunkReq, decodeMigChunkReq)
	transport.RegisterWire(wireTagMigCommitReq, decodeMigCommitReq)
	transport.RegisterWire(wireTagMigAbort, decodeMigAbort)
	transport.RegisterWire(wireTagLoadReq, decodeLoadReportReq)
	transport.RegisterWire(wireTagLoadResp, decodeLoadReportResp)
	transport.RegisterWire(wireTagCreateVnodeReq, decodeCreateVnodeReq)
	transport.RegisterWire(wireTagCreateVnodeResp, decodeCreateVnodeResp)
	transport.RegisterWire(wireTagJoinGroupReq, decodeJoinGroupReq)
	transport.RegisterWire(wireTagJoinGroupResp, decodeJoinGroupResp)
	transport.RegisterWire(wireTagLeaveVnodeReq, decodeLeaveVnodeReq)
	transport.RegisterWire(wireTagLeaveVnodeResp, decodeLeaveVnodeResp)
	transport.RegisterWire(wireTagSplitAllReq, decodeSplitAllReq)
	transport.RegisterWire(wireTagTransferReq, decodeTransferReq)
	transport.RegisterWire(wireTagTransferResp, decodeTransferResp)
	transport.RegisterWire(wireTagShipVnodeReq, decodeShipVnodeReq)
	transport.RegisterWire(wireTagGroupInit, decodeGroupInit)
	transport.RegisterWire(wireTagLpdrSync, decodeLpdrSync)
	transport.RegisterWire(wireTagBootstrapInfo, decodeBootstrapInfo)
	transport.RegisterWire(wireTagSnodeLeaving, decodeSnodeLeaving)
	transport.RegisterWire(wireTagSnodeRecovered, decodeSnodeRecovered)
	transport.RegisterWire(wireTagViewUpdate, decodeViewUpdate)
	transport.RegisterWire(wireTagReplSyncReq, decodeReplSyncReq)
	transport.RegisterWire(wireTagReplDrop, decodeReplDrop)
	transport.RegisterWire(wireTagPromoteQueryReq, decodePromoteQueryReq)
	transport.RegisterWire(wireTagPromoteQueryResp, decodePromoteQueryResp)
	transport.RegisterWire(wireTagPromoteOrderReq, decodePromoteOrderReq)
	transport.RegisterWire(wireTagOverlapQueryReq, decodeOverlapQueryReq)
	transport.RegisterWire(wireTagOverlapQueryResp, decodeOverlapQueryResp)
}

// --- shared sub-structures ---

func appendPartition(b []byte, p hashspace.Partition) []byte {
	b = transport.AppendUvarint(b, p.Prefix)
	return transport.AppendUvarint(b, uint64(p.Level))
}

func readPartition(r *transport.WireReader) hashspace.Partition {
	pre := r.Uvarint()
	lvl := r.Uvarint()
	// Validate before use: an out-of-range level would index past the
	// level-set arrays downstream (a remote panic from a corrupt frame),
	// and stray prefix bits would corrupt partition-keyed maps.
	if lvl > hashspace.MaxLevel {
		r.Invalid("partition level")
		return hashspace.Partition{}
	}
	p := hashspace.Partition{Prefix: pre, Level: uint8(lvl)}
	if !p.Valid() {
		r.Invalid("partition prefix")
		return hashspace.Partition{}
	}
	return p
}

// readLevel reads a bare splitlevel, rejecting values no partition can
// have instead of truncating them into range.
func readLevel(r *transport.WireReader) uint8 {
	lvl := r.Uvarint()
	if lvl > hashspace.MaxLevel {
		r.Invalid("splitlevel")
		return 0
	}
	return uint8(lvl)
}

func appendVnodeName(b []byte, n VnodeName) []byte {
	b = transport.AppendVarint(b, int64(n.Snode))
	return transport.AppendVarint(b, int64(n.Local))
}

func readVnodeName(r *transport.WireReader) VnodeName {
	sn := r.Varint()
	lo := r.Varint()
	return VnodeName{Snode: transport.NodeID(sn), Local: int(lo)}
}

func appendNodeIDs(b []byte, ids []transport.NodeID) []byte {
	b = transport.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = transport.AppendVarint(b, int64(id))
	}
	return b
}

func readNodeIDs(r *transport.WireReader) []transport.NodeID {
	n := r.ArrayLen(1)
	if n == 0 {
		return nil
	}
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(r.Varint())
	}
	return ids
}

func appendRouteEntries(b []byte, es []routeEntry) []byte {
	b = transport.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = appendPartition(b, e.Partition)
		b = appendOwnerRef(b, e.Ref)
		b = appendNodeIDs(b, e.Replicas)
	}
	return b
}

func readRouteEntries(r *transport.WireReader) []routeEntry {
	n := r.ArrayLen(5)
	if n == 0 {
		return nil
	}
	es := make([]routeEntry, n)
	for i := range es {
		es[i].Partition = readPartition(r)
		es[i].Ref = readOwnerRef(r)
		es[i].Replicas = readNodeIDs(r)
	}
	return es
}

func appendBatchItems(b []byte, items []batchItem) []byte {
	b = transport.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = transport.AppendString(b, it.Key)
		b = transport.AppendBytes(b, it.Value)
	}
	return b
}

func readBatchItems(r *transport.WireReader) []batchItem {
	n := r.ArrayLen(2)
	if n == 0 {
		return nil
	}
	items := make([]batchItem, n)
	for i := range items {
		items[i].Key = r.String()
		items[i].Value = r.Bytes()
	}
	return items
}

// --- lookup ---

func (m lookupReq) WireTag() uint16 { return wireTagLookupReq }

func (m lookupReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendUvarint(b, m.R)
	b = transport.AppendVarint(b, int64(m.ReplyTo))
	return transport.AppendVarint(b, int64(m.Hops))
}

func decodeLookupReq(r *transport.WireReader) (any, error) {
	var m lookupReq
	m.Op = r.Uvarint()
	m.R = r.Uvarint()
	m.ReplyTo = transport.NodeID(r.Varint())
	m.Hops = int(r.Varint())
	return m, r.Err()
}

func (m lookupResp) WireTag() uint16 { return wireTagLookupResp }

func (m lookupResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.Owner)
	b = transport.AppendVarint(b, int64(m.Host))
	b = appendPartition(b, m.Partition)
	b = transport.AppendUvarint(b, m.Group.Bits)
	b = transport.AppendUvarint(b, uint64(m.Group.Len))
	b = transport.AppendVarint(b, int64(m.Leader))
	return transport.AppendString(b, m.Err)
}

func decodeLookupResp(r *transport.WireReader) (any, error) {
	var m lookupResp
	m.Op = r.Uvarint()
	m.Owner = readVnodeName(r)
	m.Host = transport.NodeID(r.Varint())
	m.Partition = readPartition(r)
	m.Group = core.GroupID{Bits: r.Uvarint(), Len: uint8(r.Uvarint())}
	m.Leader = transport.NodeID(r.Varint())
	m.Err = r.String()
	return m, r.Err()
}

// --- batch ---

func (m batchReq) WireTag() uint16 { return wireTagBatchReq }

func (m batchReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendVarint(b, int64(m.Kind))
	b = appendBatchItems(b, m.Items)
	b = transport.AppendVarint(b, int64(m.ReplyTo))
	b = transport.AppendVarint(b, int64(m.Hops))
	return transport.AppendBool(b, m.ReadReplica)
}

func decodeBatchReq(r *transport.WireReader) (any, error) {
	var m batchReq
	m.Op = r.Uvarint()
	m.Kind = dataOp(r.Varint())
	m.Items = readBatchItems(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	m.Hops = int(r.Varint())
	m.ReadReplica = r.Bool()
	m.private = true // decoded slices are exclusively this message's
	return m, r.Err()
}

func (m batchResp) WireTag() uint16 { return wireTagBatchResp }

func (m batchResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendUvarint(b, uint64(len(m.Results)))
	for _, res := range m.Results {
		b = transport.AppendBytes(b, res.Value)
		b = transport.AppendBool(b, res.Found)
		b = transport.AppendString(b, res.Err)
	}
	return appendRouteEntries(b, m.Served)
}

func decodeBatchResp(r *transport.WireReader) (any, error) {
	var m batchResp
	m.Op = r.Uvarint()
	if n := r.ArrayLen(3); n > 0 {
		m.Results = make([]batchItemResp, n)
		for i := range m.Results {
			m.Results[i].Value = r.Bytes()
			m.Results[i].Found = r.Bool()
			m.Results[i].Err = r.String()
		}
	}
	m.Served = readRouteEntries(r)
	return m, r.Err()
}

// --- replica plane ---

func (m replWriteReq) WireTag() uint16 { return wireTagReplWriteReq }

func (m replWriteReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendVarint(b, int64(m.Kind))
	b = transport.AppendUvarint(b, uint64(len(m.Sets)))
	for _, set := range m.Sets {
		b = appendPartition(b, set.Partition)
		b = appendBatchItems(b, set.Items)
		b = transport.AppendUvarint(b, set.Ver)
		b = appendGroup(b, set.Group)
	}
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeReplWriteReq(r *transport.WireReader) (any, error) {
	var m replWriteReq
	m.Op = r.Uvarint()
	m.Kind = dataOp(r.Varint())
	if n := r.ArrayLen(3); n > 0 {
		m.Sets = make([]replWriteSet, n)
		for i := range m.Sets {
			m.Sets[i].Partition = readPartition(r)
			m.Sets[i].Items = readBatchItems(r)
			m.Sets[i].Ver = r.Uvarint()
			m.Sets[i].Group = readGroup(r)
		}
	}
	m.ReplyTo = transport.NodeID(r.Varint())
	m.private = true // decoded slices are exclusively this message's
	return m, r.Err()
}

func (m ackResp) WireTag() uint16 { return wireTagReplWriteResp }

func (m ackResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendString(b, m.Err)
}

func decodeAckResp(r *transport.WireReader) (any, error) {
	var m ackResp
	m.Op = r.Uvarint()
	m.Err = r.String()
	return m, r.Err()
}

func (m replProbeReq) WireTag() uint16 { return wireTagReplProbeReq }

func (m replProbeReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendUvarint(b, uint64(len(m.Digests)))
	for _, d := range m.Digests {
		b = appendPartition(b, d.Partition)
		b = transport.AppendVarint(b, int64(d.Count))
		b = transport.AppendUvarint(b, d.Sum)
	}
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeReplProbeReq(r *transport.WireReader) (any, error) {
	var m replProbeReq
	m.Op = r.Uvarint()
	if n := r.ArrayLen(4); n > 0 {
		m.Digests = make([]partDigest, n)
		for i := range m.Digests {
			m.Digests[i].Partition = readPartition(r)
			m.Digests[i].Count = int(r.Varint())
			m.Digests[i].Sum = r.Uvarint()
		}
	}
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m replProbeResp) WireTag() uint16 { return wireTagReplProbeResp }

func (m replProbeResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return appendPartitions(b, m.OutOfSync)
}

func decodeReplProbeResp(r *transport.WireReader) (any, error) {
	var m replProbeResp
	m.Op = r.Uvarint()
	m.OutOfSync = readPartitions(r)
	return m, r.Err()
}

// --- ping ---

func (m pingReq) WireTag() uint16 { return wireTagPingReq }

func (m pingReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodePingReq(r *transport.WireReader) (any, error) {
	var m pingReq
	m.Op = r.Uvarint()
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m pingResp) WireTag() uint16 { return wireTagPingResp }

func (m pingResp) AppendWire(b []byte) []byte {
	return transport.AppendUvarint(b, m.Op)
}

func decodePingResp(r *transport.WireReader) (any, error) {
	var m pingResp
	m.Op = r.Uvarint()
	return m, r.Err()
}

// --- chunked live migration ---

func appendGroup(b []byte, g core.GroupID) []byte {
	b = transport.AppendUvarint(b, g.Bits)
	return transport.AppendUvarint(b, uint64(g.Len))
}

func readGroup(r *transport.WireReader) core.GroupID {
	return core.GroupID{Bits: r.Uvarint(), Len: uint8(r.Uvarint())}
}

func appendMigItems(b []byte, items []migItem) []byte {
	b = transport.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = transport.AppendString(b, it.Key)
		b = transport.AppendBytes(b, it.Value)
		b = transport.AppendBool(b, it.Del)
	}
	return b
}

func readMigItems(r *transport.WireReader) []migItem {
	n := r.ArrayLen(3)
	if n == 0 {
		return nil
	}
	items := make([]migItem, n)
	for i := range items {
		items[i].Key = r.String()
		items[i].Value = r.Bytes()
		items[i].Del = r.Bool()
	}
	return items
}

func (m migBeginReq) WireTag() uint16 { return wireTagMigBeginReq }

func (m migBeginReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendGroup(b, m.Group)
	b = appendVnodeName(b, m.To)
	b = appendPartition(b, m.Partition)
	b = transport.AppendUvarint(b, uint64(m.Level))
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeMigBeginReq(r *transport.WireReader) (any, error) {
	var m migBeginReq
	m.Op = r.Uvarint()
	m.Group = readGroup(r)
	m.To = readVnodeName(r)
	m.Partition = readPartition(r)
	m.Level = readLevel(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m migChunkReq) WireTag() uint16 { return wireTagMigChunkReq }

func (m migChunkReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.To)
	b = appendPartition(b, m.Partition)
	b = appendMigItems(b, m.Items)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeMigChunkReq(r *transport.WireReader) (any, error) {
	var m migChunkReq
	m.Op = r.Uvarint()
	m.To = readVnodeName(r)
	m.Partition = readPartition(r)
	m.Items = readMigItems(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	m.private = true // decoded slices are exclusively this message's
	return m, r.Err()
}

func (m migCommitReq) WireTag() uint16 { return wireTagMigCommitReq }

func (m migCommitReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.To)
	b = appendPartition(b, m.Partition)
	b = appendMigItems(b, m.Items)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeMigCommitReq(r *transport.WireReader) (any, error) {
	var m migCommitReq
	m.Op = r.Uvarint()
	m.To = readVnodeName(r)
	m.Partition = readPartition(r)
	m.Items = readMigItems(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	m.private = true
	return m, r.Err()
}

func (m migAbortMsg) WireTag() uint16 { return wireTagMigAbort }

func (m migAbortMsg) AppendWire(b []byte) []byte {
	b = appendVnodeName(b, m.To)
	return appendPartition(b, m.Partition)
}

func decodeMigAbort(r *transport.WireReader) (any, error) {
	var m migAbortMsg
	m.To = readVnodeName(r)
	m.Partition = readPartition(r)
	return m, r.Err()
}

// --- load reports ---

func appendFloat(b []byte, v float64) []byte {
	return transport.AppendUvarint(b, math.Float64bits(v))
}

func readFloat(r *transport.WireReader) float64 {
	return math.Float64frombits(r.Uvarint())
}

func (m loadReportReq) WireTag() uint16 { return wireTagLoadReq }

func (m loadReportReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeLoadReportReq(r *transport.WireReader) (any, error) {
	var m loadReportReq
	m.Op = r.Uvarint()
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m loadReportResp) WireTag() uint16 { return wireTagLoadResp }

func (m loadReportResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendVarint(b, int64(m.Vnodes))
	b = transport.AppendVarint(b, int64(m.Keys))
	b = appendFloat(b, m.Quota)
	b = appendFloat(b, m.Reads)
	b = appendFloat(b, m.Writes)
	return appendFloat(b, m.Bytes)
}

func decodeLoadReportResp(r *transport.WireReader) (any, error) {
	var m loadReportResp
	m.Op = r.Uvarint()
	m.Vnodes = int(r.Varint())
	m.Keys = int(r.Varint())
	m.Quota = readFloat(r)
	m.Reads = readFloat(r)
	m.Writes = readFloat(r)
	m.Bytes = readFloat(r)
	return m, r.Err()
}

// --- vnode creation and removal ---

func (m createVnodeReq) WireTag() uint16 { return wireTagCreateVnodeReq }

func (m createVnodeReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendVarint(b, int64(m.ReplyTo))
	return transport.AppendBool(b, m.Bootstrap)
}

func decodeCreateVnodeReq(r *transport.WireReader) (any, error) {
	var m createVnodeReq
	m.Op = r.Uvarint()
	m.ReplyTo = transport.NodeID(r.Varint())
	m.Bootstrap = r.Bool()
	return m, r.Err()
}

func (m createVnodeResp) WireTag() uint16 { return wireTagCreateVnodeResp }

func (m createVnodeResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.Vnode)
	b = appendGroup(b, m.Group)
	return transport.AppendString(b, m.Err)
}

func decodeCreateVnodeResp(r *transport.WireReader) (any, error) {
	var m createVnodeResp
	m.Op = r.Uvarint()
	m.Vnode = readVnodeName(r)
	m.Group = readGroup(r)
	m.Err = r.String()
	return m, r.Err()
}

func (m joinGroupReq) WireTag() uint16 { return wireTagJoinGroupReq }

func (m joinGroupReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendGroup(b, m.Group)
	b = appendVnodeName(b, m.NewVnode)
	b = transport.AppendVarint(b, int64(m.NewHost))
	b = transport.AppendVarint(b, int64(m.ReplyTo))
	return transport.AppendVarint(b, int64(m.Hops))
}

func decodeJoinGroupReq(r *transport.WireReader) (any, error) {
	var m joinGroupReq
	m.Op = r.Uvarint()
	m.Group = readGroup(r)
	m.NewVnode = readVnodeName(r)
	m.NewHost = transport.NodeID(r.Varint())
	m.ReplyTo = transport.NodeID(r.Varint())
	m.Hops = int(r.Varint())
	return m, r.Err()
}

func (m joinGroupResp) WireTag() uint16 { return wireTagJoinGroupResp }

func (m joinGroupResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendGroup(b, m.Group)
	b = transport.AppendBool(b, m.Retry)
	return transport.AppendString(b, m.Err)
}

func decodeJoinGroupResp(r *transport.WireReader) (any, error) {
	var m joinGroupResp
	m.Op = r.Uvarint()
	m.Group = readGroup(r)
	m.Retry = r.Bool()
	m.Err = r.String()
	return m, r.Err()
}

func (m leaveVnodeReq) WireTag() uint16 { return wireTagLeaveVnodeReq }

func (m leaveVnodeReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.Vnode)
	b = appendGroup(b, m.Group)
	b = transport.AppendVarint(b, int64(m.ReplyTo))
	return transport.AppendVarint(b, int64(m.Hops))
}

func decodeLeaveVnodeReq(r *transport.WireReader) (any, error) {
	var m leaveVnodeReq
	m.Op = r.Uvarint()
	m.Vnode = readVnodeName(r)
	m.Group = readGroup(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	m.Hops = int(r.Varint())
	return m, r.Err()
}

func (m leaveVnodeResp) WireTag() uint16 { return wireTagLeaveVnodeResp }

func (m leaveVnodeResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendBool(b, m.Retry)
	return transport.AppendString(b, m.Err)
}

func decodeLeaveVnodeResp(r *transport.WireReader) (any, error) {
	var m leaveVnodeResp
	m.Op = r.Uvarint()
	m.Retry = r.Bool()
	m.Err = r.String()
	return m, r.Err()
}

// --- intra-group rebalancement ---

// appendSplitAll/readSplitAll are the body of splitAllReq on the wire and
// of the walTagSplitAll journal record.
func appendSplitAll(b []byte, g core.GroupID, newLevel uint8) []byte {
	b = appendGroup(b, g)
	return transport.AppendUvarint(b, uint64(newLevel))
}

func readSplitAll(r *transport.WireReader) (core.GroupID, uint8) {
	return readGroup(r), readLevel(r)
}

func (m splitAllReq) WireTag() uint16 { return wireTagSplitAllReq }

func (m splitAllReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendSplitAll(b, m.Group, m.NewLevel)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeSplitAllReq(r *transport.WireReader) (any, error) {
	var m splitAllReq
	m.Op = r.Uvarint()
	m.Group, m.NewLevel = readSplitAll(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m transferReq) WireTag() uint16 { return wireTagTransferReq }

func (m transferReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendGroup(b, m.Group)
	b = appendVnodeName(b, m.From)
	b = appendVnodeName(b, m.To)
	b = transport.AppendVarint(b, int64(m.ToHost))
	b = transport.AppendUvarint(b, uint64(m.Level))
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeTransferReq(r *transport.WireReader) (any, error) {
	var m transferReq
	m.Op = r.Uvarint()
	m.Group = readGroup(r)
	m.From = readVnodeName(r)
	m.To = readVnodeName(r)
	m.ToHost = transport.NodeID(r.Varint())
	m.Level = readLevel(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m transferResp) WireTag() uint16 { return wireTagTransferResp }

func (m transferResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendPartition(b, m.Partition)
	b = transport.AppendVarint(b, int64(m.Keys))
	return transport.AppendString(b, m.Err)
}

func decodeTransferResp(r *transport.WireReader) (any, error) {
	var m transferResp
	m.Op = r.Uvarint()
	m.Partition = readPartition(r)
	m.Keys = int(r.Varint())
	m.Err = r.String()
	return m, r.Err()
}

func (m shipVnodeReq) WireTag() uint16 { return wireTagShipVnodeReq }

func (m shipVnodeReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendVnodeName(b, m.Vnode)
	b = transport.AppendUvarint(b, uint64(len(m.Dests)))
	for _, d := range m.Dests {
		b = appendOwnerRef(b, d)
	}
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeShipVnodeReq(r *transport.WireReader) (any, error) {
	var m shipVnodeReq
	m.Op = r.Uvarint()
	m.Vnode = readVnodeName(r)
	if n := r.ArrayLen(3); n > 0 {
		m.Dests = make([]ownerRef, n)
		for i := range m.Dests {
			m.Dests[i] = readOwnerRef(r)
		}
	}
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

// --- group management ---

func (m groupInit) WireTag() uint16 { return wireTagGroupInit }

func (m groupInit) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendLpdrState(b, m.State)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeGroupInit(r *transport.WireReader) (any, error) {
	var m groupInit
	m.Op = r.Uvarint()
	m.State = readLpdrState(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m lpdrSyncMsg) WireTag() uint16 { return wireTagLpdrSync }

// AppendWire is also the body of the walTagLpdr journal record.
func (m lpdrSyncMsg) AppendWire(b []byte) []byte {
	b = appendLpdrState(b, m.State)
	b = transport.AppendUvarint(b, uint64(len(m.Dissolved)))
	for _, g := range m.Dissolved {
		b = appendGroup(b, g)
	}
	return b
}

func readLpdrSync(r *transport.WireReader) lpdrSyncMsg {
	var m lpdrSyncMsg
	m.State = readLpdrState(r)
	if n := r.ArrayLen(2); n > 0 {
		m.Dissolved = make([]core.GroupID, n)
		for i := range m.Dissolved {
			m.Dissolved[i] = readGroup(r)
		}
	}
	return m
}

func decodeLpdrSync(r *transport.WireReader) (any, error) {
	m := readLpdrSync(r)
	return m, r.Err()
}

func (m bootstrapInfo) WireTag() uint16 { return wireTagBootstrapInfo }

func (m bootstrapInfo) AppendWire(b []byte) []byte { return appendOwnerRef(b, m.Owner) }

func decodeBootstrapInfo(r *transport.WireReader) (any, error) {
	m := bootstrapInfo{Owner: readOwnerRef(r)}
	return m, r.Err()
}

// --- membership ---

func (m snodeLeavingMsg) WireTag() uint16 { return wireTagSnodeLeaving }

func (m snodeLeavingMsg) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(m.Leaving))
	b = appendRouteEntries(b, m.Routes)
	return transport.AppendBool(b, m.Crashed)
}

func decodeSnodeLeaving(r *transport.WireReader) (any, error) {
	var m snodeLeavingMsg
	m.Leaving = transport.NodeID(r.Varint())
	m.Routes = readRouteEntries(r)
	m.Crashed = r.Bool()
	return m, r.Err()
}

func (m snodeRecoveredMsg) WireTag() uint16 { return wireTagSnodeRecovered }

func (m snodeRecoveredMsg) AppendWire(b []byte) []byte {
	b = transport.AppendVarint(b, int64(m.Recovered))
	return appendRouteEntries(b, m.Routes)
}

func decodeSnodeRecovered(r *transport.WireReader) (any, error) {
	var m snodeRecoveredMsg
	m.Recovered = transport.NodeID(r.Varint())
	m.Routes = readRouteEntries(r)
	return m, r.Err()
}

func (m viewUpdate) WireTag() uint16 { return wireTagViewUpdate }

func (m viewUpdate) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Epoch)
	return appendNodeIDs(b, m.Snodes)
}

func decodeViewUpdate(r *transport.WireReader) (any, error) {
	var m viewUpdate
	m.Epoch = r.Uvarint()
	m.Snodes = readNodeIDs(r)
	return m, r.Err()
}

// --- replica repair ---

// appendBucket/readBucket are one partition with its full contents: the
// body of replSyncReq on the wire, of the walTagReplSync journal record
// and of a snapshot bucket file.
func appendBucket(b []byte, p hashspace.Partition, data map[string][]byte) []byte {
	b = appendPartition(b, p)
	return appendKVMap(b, data)
}

func readBucket(r *transport.WireReader) (hashspace.Partition, map[string][]byte) {
	return readPartition(r), readKVMap(r)
}

func (m replSyncReq) WireTag() uint16 { return wireTagReplSyncReq }

func (m replSyncReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendBucket(b, m.Partition, m.Data)
	b = transport.AppendUvarint(b, m.Ver)
	b = appendGroup(b, m.Group)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeReplSyncReq(r *transport.WireReader) (any, error) {
	var m replSyncReq
	m.Op = r.Uvarint()
	m.Partition, m.Data = readBucket(r)
	m.Ver = r.Uvarint()
	m.Group = readGroup(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m replDropMsg) WireTag() uint16 { return wireTagReplDrop }

func (m replDropMsg) AppendWire(b []byte) []byte { return appendPartitions(b, m.Partitions) }

func decodeReplDrop(r *transport.WireReader) (any, error) {
	m := replDropMsg{Partitions: readPartitions(r)}
	return m, r.Err()
}

// --- failover election ---

// promoteQueryReq and promoteOrderReq carry the same four fields about
// one partition of a dead primary; they differ in what they ask for.
func (m promoteQueryReq) WireTag() uint16 { return wireTagPromoteQueryReq }

func (m promoteQueryReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendPartition(b, m.Partition)
	b = transport.AppendVarint(b, int64(m.Dead))
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func readPromoteQueryReq(r *transport.WireReader) promoteQueryReq {
	var m promoteQueryReq
	m.Op = r.Uvarint()
	m.Partition = readPartition(r)
	m.Dead = transport.NodeID(r.Varint())
	m.ReplyTo = transport.NodeID(r.Varint())
	return m
}

func decodePromoteQueryReq(r *transport.WireReader) (any, error) {
	m := readPromoteQueryReq(r)
	return m, r.Err()
}

func (m promoteQueryResp) WireTag() uint16 { return wireTagPromoteQueryResp }

func (m promoteQueryResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = transport.AppendBool(b, m.Has)
	b = transport.AppendBool(b, m.Prov)
	return transport.AppendUvarint(b, m.Ver)
}

func decodePromoteQueryResp(r *transport.WireReader) (any, error) {
	var m promoteQueryResp
	m.Op = r.Uvarint()
	m.Has = r.Bool()
	m.Prov = r.Bool()
	m.Ver = r.Uvarint()
	return m, r.Err()
}

func (m promoteOrderReq) WireTag() uint16 { return wireTagPromoteOrderReq }

func (m promoteOrderReq) AppendWire(b []byte) []byte { return promoteQueryReq(m).AppendWire(b) }

func decodePromoteOrderReq(r *transport.WireReader) (any, error) {
	m := promoteOrderReq(readPromoteQueryReq(r))
	return m, r.Err()
}

func (m overlapQueryReq) WireTag() uint16 { return wireTagOverlapQueryReq }

func (m overlapQueryReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	b = appendPartition(b, m.Partition)
	return transport.AppendVarint(b, int64(m.ReplyTo))
}

func decodeOverlapQueryReq(r *transport.WireReader) (any, error) {
	var m overlapQueryReq
	m.Op = r.Uvarint()
	m.Partition = readPartition(r)
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m overlapQueryResp) WireTag() uint16 { return wireTagOverlapQueryResp }

func (m overlapQueryResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendBool(b, m.Deeper)
}

func decodeOverlapQueryResp(r *transport.WireReader) (any, error) {
	var m overlapQueryResp
	m.Op = r.Uvarint()
	m.Deeper = r.Bool()
	return m, r.Err()
}
