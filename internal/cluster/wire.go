package cluster

import (
	"math"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// The binary codec of every protocol message.  A message's layout is
// written once, as a fields method that hands each field, in wire order,
// to a walker; the walker appends the field when encoding and reads it
// when decoding, so the two directions cannot disagree on order, width or
// range check.  wireMessages lists one row per tag and is what gets
// registered with the fabric, which has no other encoding: a message
// without a row cannot be received, one without WireTag/AppendWire does
// not compile at Snode.send.  Journal and snapshot records (walrec.go)
// are walked the same way and share the sub-structure walks below.
//
// Tags are a wire-compatibility contract: never renumber, only append
// (tags.lock, held to the constants by TestTagRegistry).  Wire tags are
// 1–31 and 64 upwards; the journal holds 32–63.  Integers are varints
// (zigzag for the signed NodeID/int fields — the client endpoint id is
// negative); byte slices and strings are length-prefixed.  Decoded bytes
// come from outside the process: every count goes through ArrayLen and
// every partition, level and group length is range-checked, each in its
// one walker primitive.

const (
	wireTagLookupReq    uint16 = 1
	wireTagLookupResp   uint16 = 2
	wireTagBatchReq     uint16 = 3
	wireTagBatchResp    uint16 = 4
	wireTagReplWriteReq uint16 = 5
	// wireTagReplWriteResp carries ackResp, the one {Op, Err} response.
	// The registry is append-only, so the tag keeps the name of the first
	// acknowledgement that used it; 12, 14 and 16 are retired.
	wireTagReplWriteResp uint16 = 6
	wireTagReplProbeReq  uint16 = 7
	wireTagReplProbeResp uint16 = 8
	wireTagPingReq       uint16 = 9
	wireTagPingResp      uint16 = 10
	// 11, 13 and 17 are retired: the staging bucket's begin, chunk and
	// abort, which a replica sync and a replica drop replaced.
	wireTagMigCommitReq     uint16 = 15
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
	// 84–86 are retired: the promotion order and the stale-geometry
	// probe, which one election round replaced.
)

// wireMessages is the message table: the decoder of every wire tag,
// derived from the message's fields walk.  init registers the rows,
// TestTagRegistry requires one per wireTag constant, and
// TestWireRoundTrips requires a sample for each.
var wireMessages = []struct {
	tag uint16
	dec transport.WireDecoder
}{
	{wireTagLookupReq, walkDecoder((*lookupReq).fields)},
	{wireTagLookupResp, walkDecoder((*lookupResp).fields)},
	{wireTagBatchReq, walkDecoder((*batchReq).fields)},
	{wireTagBatchResp, walkDecoder((*batchResp).fields)},
	{wireTagReplWriteReq, walkDecoder((*replWriteReq).fields)},
	{wireTagReplWriteResp, walkDecoder((*ackResp).fields)},
	{wireTagReplProbeReq, walkDecoder((*replProbeReq).fields)},
	{wireTagReplProbeResp, walkDecoder((*replProbeResp).fields)},
	{wireTagPingReq, walkDecoder((*pingReq).fields)},
	{wireTagPingResp, walkDecoder((*pingResp).fields)},
	{wireTagMigCommitReq, walkDecoder((*migCommitReq).fields)},
	{wireTagLoadReq, walkDecoder((*loadReportReq).fields)},
	{wireTagLoadResp, walkDecoder((*loadReportResp).fields)},
	{wireTagCreateVnodeReq, walkDecoder((*createVnodeReq).fields)},
	{wireTagCreateVnodeResp, walkDecoder((*createVnodeResp).fields)},
	{wireTagJoinGroupReq, walkDecoder((*joinGroupReq).fields)},
	{wireTagJoinGroupResp, walkDecoder((*joinGroupResp).fields)},
	{wireTagLeaveVnodeReq, walkDecoder((*leaveVnodeReq).fields)},
	{wireTagLeaveVnodeResp, walkDecoder((*leaveVnodeResp).fields)},
	{wireTagSplitAllReq, walkDecoder((*splitAllReq).fields)},
	{wireTagTransferReq, walkDecoder((*transferReq).fields)},
	{wireTagTransferResp, walkDecoder((*transferResp).fields)},
	{wireTagShipVnodeReq, walkDecoder((*shipVnodeReq).fields)},
	{wireTagGroupInit, walkDecoder((*groupInit).fields)},
	{wireTagLpdrSync, walkDecoder((*lpdrSyncMsg).fields)},
	{wireTagBootstrapInfo, walkDecoder((*bootstrapInfo).fields)},
	{wireTagSnodeLeaving, walkDecoder((*snodeLeavingMsg).fields)},
	{wireTagSnodeRecovered, walkDecoder((*snodeRecoveredMsg).fields)},
	{wireTagViewUpdate, walkDecoder((*viewUpdate).fields)},
	{wireTagReplSyncReq, walkDecoder((*replSyncReq).fields)},
	{wireTagReplDrop, walkDecoder((*replDropMsg).fields)},
	{wireTagPromoteQueryReq, walkDecoder((*promoteQueryReq).fields)},
	{wireTagPromoteQueryResp, walkDecoder((*promoteQueryResp).fields)},
}

func init() {
	for _, row := range wireMessages {
		transport.RegisterWire(row.tag, row.dec)
	}
}

// --- the walker ---

// walker carries one encode or decode pass over a value's fields: with r
// set every primitive reads its field from r, otherwise it appends the
// field to b.  Decode errors are r's sticky error.
type walker struct {
	r *transport.WireReader
	b []byte
}

// appendWalk appends m's fields to b.  The walk is passed as a method
// expression so that, once this helper is inlined, the call is static and
// the walker stays on the stack; reaching fields through an interface or
// a type-parameter method would heap-allocate it on every frame
// (TestWireEncodeDoesNotAllocate).
func appendWalk[T any](b []byte, m *T, fields func(*T, *walker)) []byte {
	w := walker{b: b}
	fields(m, &w)
	return w.b
}

// walkDecoder turns a fields walk into the tag's decoder.  It yields the
// message value, not a pointer: receivers type-switch on values.
func walkDecoder[T any](fields func(*T, *walker)) transport.WireDecoder {
	return func(r *transport.WireReader) (any, error) {
		var m T
		fields(&m, &walker{r: r})
		return m, r.Err()
	}
}

func (w *walker) u64(v *uint64) {
	if w.r != nil {
		*v = w.r.Uvarint()
	} else {
		w.b = transport.AppendUvarint(w.b, *v)
	}
}

func (w *walker) int(v *int) {
	if w.r != nil {
		*v = int(w.r.Varint())
	} else {
		w.b = transport.AppendVarint(w.b, int64(*v))
	}
}

func (w *walker) node(v *transport.NodeID) { w.int((*int)(v)) }

func (w *walker) op(v *dataOp) { w.int((*int)(v)) }

func (w *walker) bool(v *bool) {
	if w.r != nil {
		*v = w.r.Bool()
	} else {
		w.b = transport.AppendBool(w.b, *v)
	}
}

func (w *walker) str(v *string) {
	if w.r != nil {
		*v = w.r.String()
	} else {
		w.b = transport.AppendString(w.b, *v)
	}
}

// bytes decodes into a fresh copy: the frame buffer is pooled and reused
// after the decode returns.
func (w *walker) bytes(v *[]byte) {
	if w.r != nil {
		*v = w.r.Bytes()
	} else {
		w.b = transport.AppendBytes(w.b, *v)
	}
}

func (w *walker) float(v *float64) {
	bits := math.Float64bits(*v)
	w.u64(&bits)
	*v = math.Float64frombits(bits)
}

// small walks a uint8 that travels as a uvarint.  A decoded value above
// max is rejected, never truncated into range: 259 must not arrive as 3.
func (w *walker) small(v *uint8, max uint64, what string) {
	if w.r == nil {
		w.b = transport.AppendUvarint(w.b, uint64(*v))
	} else if x := w.r.Uvarint(); x > max {
		w.r.Invalid(what)
	} else {
		*v = uint8(x)
	}
}

func (w *walker) level(v *uint8) { w.small(v, hashspace.MaxLevel, "splitlevel") }

// partition validates before use: an out-of-range level would index past
// the level-set arrays downstream (a remote panic from a corrupt frame),
// and stray prefix bits would corrupt partition-keyed maps.
func (w *walker) partition(p *hashspace.Partition) {
	w.u64(&p.Prefix)
	w.small(&p.Level, hashspace.MaxLevel, "partition level")
	if w.r != nil && !p.Valid() {
		w.r.Invalid("partition prefix")
		*p = hashspace.Partition{}
	}
}

// maxGroupLen is the longest group identifier a split can produce:
// GroupID.Split refuses to deepen an identifier of 63 digits.
const maxGroupLen = 63

func (w *walker) group(g *core.GroupID) {
	w.u64(&g.Bits)
	w.small(&g.Len, maxGroupLen, "group length")
}

// count walks the length of a collection whose elements occupy at least
// minBytes each.  Decoding goes through ArrayLen, which refuses a count
// the remaining input cannot hold, so a corrupt count cannot force a huge
// allocation.
func (w *walker) count(n, minBytes int) int {
	if w.r != nil {
		return w.r.ArrayLen(minBytes)
	}
	w.b = transport.AppendUvarint(w.b, uint64(n))
	return n
}

// sliceOf walks a slice's count and, when decoding, sizes the slice for
// it; the caller walks the elements of the slice it returns, each by a
// static call (see appendWalk).  An empty slice decodes as nil.
func sliceOf[T any](w *walker, s *[]T, minBytes int) []T {
	if n := w.count(len(*s), minBytes); w.r != nil && n > 0 {
		*s = make([]T, n)
	}
	return *s
}

func (w *walker) nodes(s *[]transport.NodeID) {
	for i := range sliceOf(w, s, 1) {
		w.node(&(*s)[i])
	}
}

func (w *walker) partitions(s *[]hashspace.Partition) {
	for i := range sliceOf(w, s, 2) {
		w.partition(&(*s)[i])
	}
}

// kvmap walks a bucket's contents, in map iteration order when encoding;
// it always decodes to a non-nil map.
func (w *walker) kvmap(m *map[string][]byte) {
	n := w.count(len(*m), 2)
	if w.r == nil {
		for k, v := range *m {
			w.str(&k)
			w.bytes(&v)
		}
		return
	}
	*m = make(map[string][]byte, n)
	for ; n > 0 && w.r.Err() == nil; n-- {
		var k string
		var v []byte
		w.str(&k)
		w.bytes(&v)
		(*m)[k] = v
	}
}

// store walks a bucket's contents held as a store: encoding writes the
// store's map, decoding builds a store around the decoded map — the one
// pass that hashes a bucket arriving whole.  A nil store encodes as empty.
func (w *walker) store(st **kvStore) {
	var m map[string][]byte
	if *st != nil {
		m = (*st).m
	}
	w.kvmap(&m)
	if w.r != nil {
		*st = newStore(m)
	}
}

// --- shared sub-structures ---

func (n *VnodeName) fields(w *walker) {
	w.node(&n.Snode)
	w.int(&n.Local)
}

func (ref *ownerRef) fields(w *walker) {
	ref.Vnode.fields(w)
	w.node(&ref.Host)
}

func (e *routeEntry) fields(w *walker) {
	w.partition(&e.Partition)
	e.Ref.fields(w)
	w.u64(&e.Epoch)
}

func (it *batchItem) fields(w *walker) {
	w.str(&it.Key)
	w.bytes(&it.Value)
}

func (res *batchItemResp) fields(w *walker) {
	w.bytes(&res.Value)
	w.bool(&res.Found)
	w.str(&res.Err)
	w.node(&res.Next)
}

// journalFields is what the journal keeps of a replica write set: Ver and
// Group are volatile election metadata.
func (set *replWriteSet) journalFields(w *walker) {
	w.partition(&set.Partition)
	for i := range sliceOf(w, &set.Items, 2) {
		set.Items[i].fields(w)
	}
}

func (set *replWriteSet) fields(w *walker) {
	set.journalFields(w)
	w.u64(&set.Ver)
	w.group(&set.Group)
}

func (d *partDigest) fields(w *walker) {
	w.partition(&d.Partition)
	w.int(&d.Count)
	w.u64(&d.Sum)
	w.group(&d.Group)
}

func (it *migItem) fields(w *walker) {
	w.str(&it.Key)
	w.bytes(&it.Value)
	w.bool(&it.Del)
}

func (mem *memberInfo) fields(w *walker) {
	mem.Vnode.fields(w)
	w.node(&mem.Host)
	w.int(&mem.Count)
}

func (st *lpdrState) fields(w *walker) {
	w.group(&st.Group)
	w.level(&st.Level)
	w.node(&st.Leader)
	for i := range sliceOf(w, &st.Members, 3) {
		st.Members[i].fields(w)
	}
}

// --- lookup ---

func (m lookupReq) WireTag() uint16            { return wireTagLookupReq }
func (m lookupReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*lookupReq).fields) }

func (m *lookupReq) fields(w *walker) {
	w.u64(&m.Op)
	w.u64(&m.R)
}

func (m lookupResp) WireTag() uint16            { return wireTagLookupResp }
func (m lookupResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*lookupResp).fields) }

func (m *lookupResp) fields(w *walker) {
	w.u64(&m.Op)
	m.Owner.fields(w)
	w.node(&m.Host)
	w.partition(&m.Partition)
	w.group(&m.Group)
	w.node(&m.Leader)
	w.node(&m.Next)
	w.str(&m.Err)
}

// --- batch ---

func (m batchReq) WireTag() uint16            { return wireTagBatchReq }
func (m batchReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*batchReq).fields) }

func (m *batchReq) fields(w *walker) {
	w.u64(&m.Op)
	w.op(&m.Kind)
	for i := range sliceOf(w, &m.Items, 2) {
		m.Items[i].fields(w)
	}
	w.u64(&m.Known)
}

func (m batchResp) WireTag() uint16            { return wireTagBatchResp }
func (m batchResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*batchResp).fields) }

func (m *batchResp) fields(w *walker) {
	w.u64(&m.Op)
	for i := range sliceOf(w, &m.Results, 3) {
		m.Results[i].fields(w)
	}
	for i := range sliceOf(w, &m.Served, 5) {
		m.Served[i].fields(w)
	}
}

// --- replica plane ---

func (m replWriteReq) WireTag() uint16            { return wireTagReplWriteReq }
func (m replWriteReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*replWriteReq).fields) }

func (m *replWriteReq) fields(w *walker) {
	w.u64(&m.Op)
	w.op(&m.Kind)
	for i := range sliceOf(w, &m.Sets, 3) {
		m.Sets[i].fields(w)
	}
}

func (m ackResp) WireTag() uint16            { return wireTagReplWriteResp }
func (m ackResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*ackResp).fields) }

func (m *ackResp) fields(w *walker) {
	w.u64(&m.Op)
	w.str(&m.Err)
}

func (m replProbeReq) WireTag() uint16            { return wireTagReplProbeReq }
func (m replProbeReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*replProbeReq).fields) }

func (m *replProbeReq) fields(w *walker) {
	w.u64(&m.Op)
	for i := range sliceOf(w, &m.Digests, 4) {
		m.Digests[i].fields(w)
	}
}

func (m replProbeResp) WireTag() uint16            { return wireTagReplProbeResp }
func (m replProbeResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*replProbeResp).fields) }

func (m *replProbeResp) fields(w *walker) {
	w.u64(&m.Op)
	w.partitions(&m.OutOfSync)
}

// --- ping ---

func (m pingReq) WireTag() uint16            { return wireTagPingReq }
func (m pingReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*pingReq).fields) }

func (m *pingReq) fields(w *walker) {
	w.u64(&m.Op)
}

func (m pingResp) WireTag() uint16            { return wireTagPingResp }
func (m pingResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*pingResp).fields) }

func (m *pingResp) fields(w *walker) { w.u64(&m.Op) }

// --- live migration ---

func (m migCommitReq) WireTag() uint16            { return wireTagMigCommitReq }
func (m migCommitReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*migCommitReq).fields) }

func (m *migCommitReq) fields(w *walker) {
	w.u64(&m.Op)
	m.To.fields(w)
	w.group(&m.Group)
	w.level(&m.Level)
	w.partition(&m.Partition)
	for i := range sliceOf(w, &m.Items, 3) {
		m.Items[i].fields(w)
	}
	w.u64(&m.Ver)
}

// --- load reports ---

func (m loadReportReq) WireTag() uint16            { return wireTagLoadReq }
func (m loadReportReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*loadReportReq).fields) }

func (m *loadReportReq) fields(w *walker) {
	w.u64(&m.Op)
}

func (m loadReportResp) WireTag() uint16 { return wireTagLoadResp }
func (m loadReportResp) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*loadReportResp).fields)
}

func (m *loadReportResp) fields(w *walker) {
	w.u64(&m.Op)
	w.int(&m.Vnodes)
	w.int(&m.Keys)
	w.float(&m.Quota)
	w.float(&m.Reads)
	w.float(&m.Writes)
	w.float(&m.Bytes)
}

// --- vnode creation and removal ---

func (m createVnodeReq) WireTag() uint16 { return wireTagCreateVnodeReq }
func (m createVnodeReq) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*createVnodeReq).fields)
}

func (m *createVnodeReq) fields(w *walker) {
	w.u64(&m.Op)
	w.bool(&m.Bootstrap)
}

func (m createVnodeResp) WireTag() uint16 { return wireTagCreateVnodeResp }
func (m createVnodeResp) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*createVnodeResp).fields)
}

func (m *createVnodeResp) fields(w *walker) {
	w.u64(&m.Op)
	m.Vnode.fields(w)
	w.group(&m.Group)
	w.str(&m.Err)
}

func (m joinGroupReq) WireTag() uint16            { return wireTagJoinGroupReq }
func (m joinGroupReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*joinGroupReq).fields) }

func (m *joinGroupReq) fields(w *walker) {
	w.u64(&m.Op)
	w.group(&m.Group)
	m.NewVnode.fields(w)
	w.node(&m.NewHost)
}

func (m joinGroupResp) WireTag() uint16            { return wireTagJoinGroupResp }
func (m joinGroupResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*joinGroupResp).fields) }

func (m *joinGroupResp) fields(w *walker) {
	w.u64(&m.Op)
	w.group(&m.Group)
	w.bool(&m.Retry)
	w.node(&m.Next)
	w.str(&m.Err)
}

func (m leaveVnodeReq) WireTag() uint16            { return wireTagLeaveVnodeReq }
func (m leaveVnodeReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*leaveVnodeReq).fields) }

func (m *leaveVnodeReq) fields(w *walker) {
	w.u64(&m.Op)
	m.Vnode.fields(w)
	w.group(&m.Group)
}

func (m leaveVnodeResp) WireTag() uint16 { return wireTagLeaveVnodeResp }
func (m leaveVnodeResp) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*leaveVnodeResp).fields)
}

func (m *leaveVnodeResp) fields(w *walker) {
	w.u64(&m.Op)
	w.bool(&m.Retry)
	w.group(&m.Group)
	w.node(&m.Next)
	w.str(&m.Err)
}

// --- intra-group rebalancement ---

func (m splitAllReq) WireTag() uint16            { return wireTagSplitAllReq }
func (m splitAllReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*splitAllReq).fields) }

// The split itself is walSplitAllRec's walk: the journal keeps that much.
func (m *splitAllReq) fields(w *walker) {
	w.u64(&m.Op)
	(*walSplitAllRec)(m).fields(w)
}

func (m transferReq) WireTag() uint16            { return wireTagTransferReq }
func (m transferReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*transferReq).fields) }

func (m *transferReq) fields(w *walker) {
	w.u64(&m.Op)
	w.group(&m.Group)
	m.From.fields(w)
	m.To.fields(w)
	w.node(&m.ToHost)
	w.level(&m.Level)
}

func (m transferResp) WireTag() uint16            { return wireTagTransferResp }
func (m transferResp) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*transferResp).fields) }

func (m *transferResp) fields(w *walker) {
	w.u64(&m.Op)
	w.partition(&m.Partition)
	w.int(&m.Keys)
	w.str(&m.Err)
}

func (m shipVnodeReq) WireTag() uint16            { return wireTagShipVnodeReq }
func (m shipVnodeReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*shipVnodeReq).fields) }

func (m *shipVnodeReq) fields(w *walker) {
	w.u64(&m.Op)
	m.Vnode.fields(w)
}

// --- group management ---

func (m groupInit) WireTag() uint16            { return wireTagGroupInit }
func (m groupInit) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*groupInit).fields) }

func (m *groupInit) fields(w *walker) {
	w.u64(&m.Op)
	m.State.fields(w)
}

func (m lpdrSyncMsg) WireTag() uint16            { return wireTagLpdrSync }
func (m lpdrSyncMsg) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*lpdrSyncMsg).fields) }

// fields is also the body of the walTagLpdr journal record.
func (m *lpdrSyncMsg) fields(w *walker) {
	m.State.fields(w)
	for i := range sliceOf(w, &m.Dissolved, 2) {
		w.group(&m.Dissolved[i])
	}
}

func (m bootstrapInfo) WireTag() uint16            { return wireTagBootstrapInfo }
func (m bootstrapInfo) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*bootstrapInfo).fields) }

// fields is also the body of the walTagBoot journal record.
func (m *bootstrapInfo) fields(w *walker) { m.Owner.fields(w) }

// --- membership ---

func (m snodeLeavingMsg) WireTag() uint16 { return wireTagSnodeLeaving }
func (m snodeLeavingMsg) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*snodeLeavingMsg).fields)
}

func (m *snodeLeavingMsg) fields(w *walker) {
	w.node(&m.Leaving)
	for i := range sliceOf(w, &m.Routes, 5) {
		m.Routes[i].fields(w)
	}
	w.bool(&m.Crashed)
}

func (m snodeRecoveredMsg) WireTag() uint16 { return wireTagSnodeRecovered }
func (m snodeRecoveredMsg) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*snodeRecoveredMsg).fields)
}

func (m *snodeRecoveredMsg) fields(w *walker) {
	w.node(&m.Recovered)
	for i := range sliceOf(w, &m.Routes, 5) {
		m.Routes[i].fields(w)
	}
}

func (m viewUpdate) WireTag() uint16            { return wireTagViewUpdate }
func (m viewUpdate) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*viewUpdate).fields) }

func (m *viewUpdate) fields(w *walker) {
	w.u64(&m.Epoch)
	w.nodes(&m.Snodes)
}

// --- replica repair ---

func (m replSyncReq) WireTag() uint16            { return wireTagReplSyncReq }
func (m replSyncReq) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*replSyncReq).fields) }

func (m *replSyncReq) fields(w *walker) {
	w.u64(&m.Op)
	w.partition(&m.Partition)
	w.kvmap(&m.Data)
	w.u64(&m.Ver)
	w.group(&m.Group)
}

func (m replDropMsg) WireTag() uint16            { return wireTagReplDrop }
func (m replDropMsg) AppendWire(b []byte) []byte { return appendWalk(b, &m, (*replDropMsg).fields) }

// fields is also the body of the walTagReplDrop journal record.
func (m *replDropMsg) fields(w *walker) { w.partitions(&m.Partitions) }

// --- failover election ---

func (m promoteQueryReq) WireTag() uint16 { return wireTagPromoteQueryReq }
func (m promoteQueryReq) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*promoteQueryReq).fields)
}

func (m *promoteQueryReq) fields(w *walker) {
	w.u64(&m.Op)
	w.partition(&m.Partition)
	w.node(&m.Dead)
}

func (m promoteQueryResp) WireTag() uint16 { return wireTagPromoteQueryResp }
func (m promoteQueryResp) AppendWire(b []byte) []byte {
	return appendWalk(b, &m, (*promoteQueryResp).fields)
}

func (m *promoteQueryResp) fields(w *walker) {
	w.u64(&m.Op)
	w.bool(&m.Has)
	w.bool(&m.Exact)
	w.u64(&m.Ver)
	w.bool(&m.Owns)
	w.level(&m.Level)
}
