package cluster

import (
	"math"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// Hand-rolled binary codecs for the hot-path protocol messages: batch
// req/resp (the entire data plane), the replica write fan-out and probe,
// lookup, and ping.  These implement transport.WireMessage, so the TCP
// fabric frames them with the binary codec instead of gob — no reflection,
// no per-message type descriptors.  Control messages (join/split/transfer/
// ship/sync/...) stay on the gob fallback: they are orders of magnitude
// rarer and their payloads change more often.
//
// Tags are a wire-compatibility contract: never renumber, only append.
// Integers are varints (zigzag for the signed NodeID/int fields — the
// client endpoint id is negative); byte slices and strings are
// length-prefixed.

const (
	wireTagLookupReq     uint16 = 1
	wireTagLookupResp    uint16 = 2
	wireTagBatchReq      uint16 = 3
	wireTagBatchResp     uint16 = 4
	wireTagReplWriteReq  uint16 = 5
	wireTagReplWriteResp uint16 = 6
	wireTagReplProbeReq  uint16 = 7
	wireTagReplProbeResp uint16 = 8
	wireTagPingReq       uint16 = 9
	wireTagPingResp      uint16 = 10
	wireTagMigBeginReq   uint16 = 11
	wireTagMigBeginResp  uint16 = 12
	wireTagMigChunkReq   uint16 = 13
	wireTagMigChunkResp  uint16 = 14
	wireTagMigCommitReq  uint16 = 15
	wireTagMigCommitResp uint16 = 16
	wireTagMigAbort      uint16 = 17
	wireTagLoadReq       uint16 = 18
	wireTagLoadResp      uint16 = 19
)

func init() {
	transport.RegisterWire(wireTagLookupReq, decodeLookupReq)
	transport.RegisterWire(wireTagLookupResp, decodeLookupResp)
	transport.RegisterWire(wireTagBatchReq, decodeBatchReq)
	transport.RegisterWire(wireTagBatchResp, decodeBatchResp)
	transport.RegisterWire(wireTagReplWriteReq, decodeReplWriteReq)
	transport.RegisterWire(wireTagReplWriteResp, decodeReplWriteResp)
	transport.RegisterWire(wireTagReplProbeReq, decodeReplProbeReq)
	transport.RegisterWire(wireTagReplProbeResp, decodeReplProbeResp)
	transport.RegisterWire(wireTagPingReq, decodePingReq)
	transport.RegisterWire(wireTagPingResp, decodePingResp)
	transport.RegisterWire(wireTagMigBeginReq, decodeMigBeginReq)
	transport.RegisterWire(wireTagMigBeginResp, decodeMigBeginResp)
	transport.RegisterWire(wireTagMigChunkReq, decodeMigChunkReq)
	transport.RegisterWire(wireTagMigChunkResp, decodeMigChunkResp)
	transport.RegisterWire(wireTagMigCommitReq, decodeMigCommitReq)
	transport.RegisterWire(wireTagMigCommitResp, decodeMigCommitResp)
	transport.RegisterWire(wireTagMigAbort, decodeMigAbort)
	transport.RegisterWire(wireTagLoadReq, decodeLoadReportReq)
	transport.RegisterWire(wireTagLoadResp, decodeLoadReportResp)
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

func appendVnodeName(b []byte, n VnodeName) []byte {
	b = transport.AppendVarint(b, int64(n.Snode))
	return transport.AppendVarint(b, int64(n.Local))
}

func readVnodeName(r *transport.WireReader) VnodeName {
	sn := r.Varint()
	lo := r.Varint()
	return VnodeName{Snode: transport.NodeID(sn), Local: int(lo)}
}

func appendRouteEntry(b []byte, e routeEntry) []byte {
	b = appendPartition(b, e.Partition)
	b = appendVnodeName(b, e.Ref.Vnode)
	b = transport.AppendVarint(b, int64(e.Ref.Host))
	b = transport.AppendUvarint(b, uint64(len(e.Replicas)))
	for _, h := range e.Replicas {
		b = transport.AppendVarint(b, int64(h))
	}
	return b
}

func readRouteEntry(r *transport.WireReader) routeEntry {
	var e routeEntry
	e.Partition = readPartition(r)
	e.Ref.Vnode = readVnodeName(r)
	e.Ref.Host = transport.NodeID(r.Varint())
	if n := r.ArrayLen(1); n > 0 {
		e.Replicas = make([]transport.NodeID, n)
		for i := range e.Replicas {
			e.Replicas[i] = transport.NodeID(r.Varint())
		}
	}
	return e
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
	b = transport.AppendUvarint(b, uint64(len(m.Served)))
	for _, e := range m.Served {
		b = appendRouteEntry(b, e)
	}
	return b
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
	if n := r.ArrayLen(5); n > 0 {
		m.Served = make([]routeEntry, n)
		for i := range m.Served {
			m.Served[i] = readRouteEntry(r)
		}
	}
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

func (m replWriteResp) WireTag() uint16 { return wireTagReplWriteResp }

func (m replWriteResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendString(b, m.Err)
}

func decodeReplWriteResp(r *transport.WireReader) (any, error) {
	var m replWriteResp
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
	m.Level = uint8(r.Uvarint())
	m.ReplyTo = transport.NodeID(r.Varint())
	return m, r.Err()
}

func (m migBeginResp) WireTag() uint16 { return wireTagMigBeginResp }

func (m migBeginResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendString(b, m.Err)
}

func decodeMigBeginResp(r *transport.WireReader) (any, error) {
	var m migBeginResp
	m.Op = r.Uvarint()
	m.Err = r.String()
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

func (m migChunkResp) WireTag() uint16 { return wireTagMigChunkResp }

func (m migChunkResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendString(b, m.Err)
}

func decodeMigChunkResp(r *transport.WireReader) (any, error) {
	var m migChunkResp
	m.Op = r.Uvarint()
	m.Err = r.String()
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

func (m migCommitResp) WireTag() uint16 { return wireTagMigCommitResp }

func (m migCommitResp) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Op)
	return transport.AppendString(b, m.Err)
}

func decodeMigCommitResp(r *transport.WireReader) (any, error) {
	var m migCommitResp
	m.Op = r.Uvarint()
	m.Err = r.String()
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
