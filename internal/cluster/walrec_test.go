package cluster

import (
	"encoding/hex"
	"reflect"
	"testing"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// TestDiskFormatGolden pins the bytes of every WAL record, the snapshot
// meta and bucket files and the manifest: a fixed value must encode to the
// committed hex and the committed hex must decode back to the value.  The
// journal and snapshot layouts are a compatibility contract (an old data
// directory must still recover), so a diff here is a format change that
// needs a version bump — never a golden update alone.  Maps hold one entry
// because appendKVMap writes in map iteration order.
func TestDiskFormatGolden(t *testing.T) {
	p := hashspace.Partition{Prefix: 0b1011, Level: 4}
	g := core.GroupID{Bits: 0b110, Len: 3}
	vn := VnodeName{Snode: 3, Local: 7}
	owner := ownerRef{Vnode: VnodeName{Snode: 5, Local: 2}, Host: 5}
	items := []batchItem{{Key: "k1", Value: []byte("v1")}, {Key: "k2"}}
	data := map[string][]byte{"key": []byte("value")}
	lpdr := lpdrState{Group: g, Level: 4, Leader: 3, Members: []memberInfo{
		{Vnode: vn, Host: 3, Count: 8}, {Vnode: owner.Vnode, Host: 5, Count: 9},
	}}
	dissolved := []core.GroupID{{Bits: 0b11, Len: 2}}
	vnodeRec := walVnodeRec{Name: vn, Group: g, Level: 4, Joined: true, Parts: []hashspace.Partition{p, p.Sibling()}}
	dropRec := walBucketDropRec{Vnode: vn, Partition: p, NewOwner: owner}
	meta := snapMeta{
		NextLocal: 9, HasBoot: true, Boot: owner,
		Vnodes:  []walVnodeRec{vnodeRec, {Name: VnodeName{Snode: 3, Local: 8}}},
		Tombs:   []routeEntry{{Partition: p.Sibling(), Ref: owner}},
		Lpdrs:   []lpdrState{lpdr},
		Rprov:   []hashspace.Partition{p},
		Intents: []walBucketDropRec{dropRec},
	}

	// rec strips the record tag the way applyWalRecord does before it
	// hands the reader to a record decoder.
	rec := func(tag uint16, dec func(r *transport.WireReader) any) func([]byte) (any, error) {
		return func(payload []byte) (any, error) {
			r := transport.NewWireReader(payload)
			if got := r.Uvarint(); got != uint64(tag) {
				t.Errorf("record tag %d, want %d", got, tag)
			}
			v := dec(r)
			if r.Err() == nil && r.Len() != 0 {
				t.Errorf("tag %d: %d bytes left undecoded", tag, r.Len())
			}
			return v, r.Err()
		}
	}
	cases := []struct {
		name   string
		enc    []byte
		golden string
		dec    func([]byte) (any, error)
		want   any
	}{
		{"walTagWrite", encodeWalWrite(nil, opPut, p, items),
			"20020b0402026b31027631026b3200",
			rec(walTagWrite, func(r *transport.WireReader) any { return decodeWalWrite(r) }),
			walWriteRec{Kind: opPut, Partition: p, Items: items}},
		{"walTagReplWrite", encodeWalReplWrite(nil, opDel, []replWriteSet{{Partition: p, Items: items, Ver: 7, Group: g}}),
			"2104010b0402026b31027631026b3200",
			rec(walTagReplWrite, func(r *transport.WireReader) any { return decodeWalReplWrite(r) }),
			// Ver and Group are volatile election metadata: not journaled.
			walReplWriteRec{Kind: opDel, Sets: []replWriteSet{{Partition: p, Items: items}}}},
		{"walTagVnode", encodeWalVnode(nil, vnodeRec),
			"22060e06030401020b040a04",
			rec(walTagVnode, func(r *transport.WireReader) any { return readVnodeRec(r) }), vnodeRec},
		{"walTagVnodeGone", encodeWalVnodeGone(nil, vn),
			"23060e",
			rec(walTagVnodeGone, func(r *transport.WireReader) any { return readVnodeName(r) }), vn},
		{"walTagSplitAll", encodeWalSplitAll(nil, g, 5),
			"24060305",
			rec(walTagSplitAll, func(r *transport.WireReader) any {
				g, lvl := readSplitAll(r)
				return []any{g, lvl}
			}),
			[]any{g, uint8(5)}},
		{"walTagMigInstall", encodeWalMigInstall(nil, walMigInstallRec{To: vn, Group: g, Level: 4, Partition: p, Data: data}),
			"25060e0603040b0401036b65790576616c7565",
			rec(walTagMigInstall, func(r *transport.WireReader) any { return decodeWalMigInstall(r) }),
			walMigInstallRec{To: vn, Group: g, Level: 4, Partition: p, Data: data}},
		{"walTagBucketDrop", encodeWalBucketDrop(nil, dropRec),
			"26060e0b040a040a",
			rec(walTagBucketDrop, func(r *transport.WireReader) any { return readBucketDropRec(r) }), dropRec},
		{"walTagReplSync", encodeWalReplSync(nil, p, data),
			"270b0401036b65790576616c7565",
			rec(walTagReplSync, func(r *transport.WireReader) any {
				p, data := readBucket(r)
				return []any{p, data}
			}),
			[]any{p, data}},
		{"walTagReplDrop", encodeWalReplDrop(nil, []hashspace.Partition{p, p.Sibling()}),
			"28020b040a04",
			rec(walTagReplDrop, func(r *transport.WireReader) any { return readPartitions(r) }),
			[]hashspace.Partition{p, p.Sibling()}},
		{"walTagLpdr", encodeWalLpdr(nil, lpdrSyncMsg{State: lpdr, Dissolved: dissolved}),
			"290603040602060e06100a040a12010302",
			rec(walTagLpdr, func(r *transport.WireReader) any { return readLpdrSync(r) }),
			lpdrSyncMsg{State: lpdr, Dissolved: dissolved}},
		{"walTagBoot", encodeWalBoot(nil, owner),
			"2a0a040a",
			rec(walTagBoot, func(r *transport.WireReader) any { return readOwnerRef(r) }), owner},
		{"walTagMigIntent", encodeWalMigIntent(nil, dropRec),
			"2b060e0b040a040a",
			rec(walTagMigIntent, func(r *transport.WireReader) any { return readBucketDropRec(r) }), dropRec},
		{"walTagMigIntentResolved", encodeWalMigIntentResolved(nil, p),
			"2c0b04",
			rec(walTagMigIntentResolved, func(r *transport.WireReader) any { return readPartition(r) }), p},
		{"snapMeta", encodeSnapMeta(nil, meta),
			"0212010a040a02060e06030401020b040a0406100000000000010a040a040a010603040602060e06100a040a12010b0401060e0b040a040a",
			func(b []byte) (any, error) { return decodeSnapMeta(b) }, meta},
		{"snapBucket", encodeSnapBucket(nil, p, data),
			"020b0401036b65790576616c7565",
			func(b []byte) (any, error) { return decodeSnapBucket(b) }, snapBucket{Partition: p, Data: data}},
		{"manifest", encodeManifest(123456),
			"02c0c407",
			func(b []byte) (any, error) { return decodeManifest(b) }, uint64(123456)},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.enc); got != tc.golden {
			t.Errorf("%s encodes to\n  %s\nwant the committed\n  %s", tc.name, got, tc.golden)
		}
		raw, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Errorf("%s: bad golden hex: %v", tc.name, err)
			continue
		}
		got, err := tc.dec(raw)
		if err != nil {
			t.Errorf("%s: decode golden bytes: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s decodes to\n  %+v\nwant\n  %+v", tc.name, got, tc.want)
		}
	}
}
