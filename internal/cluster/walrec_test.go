package cluster

import (
	"encoding/hex"
	"fmt"
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
// because the kvmap walk writes in map iteration order.
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

	// The batch path journals a write record as header + items appended one
	// by one; it must stay byte-identical to the walWriteRec walk.
	streamed := encodeWalWriteHeader(nil, opPut, p, len(items))
	for _, it := range items {
		streamed = transport.AppendString(streamed, it.Key)
		streamed = transport.AppendBytes(streamed, it.Value)
	}
	cases := []struct {
		name   string
		enc    []byte
		golden string
		dec    func([]byte) (any, error)
		want   any
	}{
		{"walTagWrite", encodeWal(nil, walTagWrite, &walWriteRec{Kind: opPut, Partition: p, Items: items}, (*walWriteRec).fields),
			"20020b0402026b31027631026b3200",
			walRecDecoder(walTagWrite, (*walWriteRec).fields),
			walWriteRec{Kind: opPut, Partition: p, Items: items}},
		{"walTagWrite-streamed", streamed,
			"20020b0402026b31027631026b3200",
			walRecDecoder(walTagWrite, (*walWriteRec).fields),
			walWriteRec{Kind: opPut, Partition: p, Items: items}},
		{"walTagReplWrite", encodeWalReplWrite(nil, opDel, []replWriteSet{{Partition: p, Items: items, Ver: 7, Group: g}}),
			"2104010b0402026b31027631026b3200",
			walRecDecoder(walTagReplWrite, (*walReplWriteRec).fields),
			// Ver and Group are volatile election metadata: not journaled.
			walReplWriteRec{Kind: opDel, Sets: []replWriteSet{{Partition: p, Items: items}}}},
		{"walTagVnode", encodeWalVnode(nil, vnodeRec),
			"22060e06030401020b040a04",
			walRecDecoder(walTagVnode, (*walVnodeRec).fields), vnodeRec},
		{"walTagVnodeGone", encodeWalVnodeGone(nil, vn),
			"23060e",
			walRecDecoder(walTagVnodeGone, (*VnodeName).fields), vn},
		{"walTagSplitAll", encodeWalSplitAll(nil, splitAllReq{Op: 9, Group: g, NewLevel: 5, ReplyTo: 2}),
			"24060305",
			walRecDecoder(walTagSplitAll, (*splitAllReq).journalFields),
			// Op and ReplyTo belong to the request, not the split: not journaled.
			splitAllReq{Group: g, NewLevel: 5}},
		{"walTagMigInstall", encodeWalMigInstall(nil, walMigInstallRec{To: vn, Group: g, Level: 4, Partition: p, Data: data}),
			"25060e0603040b0401036b65790576616c7565",
			walRecDecoder(walTagMigInstall, (*walMigInstallRec).fields),
			walMigInstallRec{To: vn, Group: g, Level: 4, Partition: p, Data: data}},
		{"walTagBucketDrop", encodeWalBucketDrop(nil, dropRec),
			"26060e0b040a040a",
			walRecDecoder(walTagBucketDrop, (*walBucketDropRec).fields), dropRec},
		{"walTagReplSync", encodeWalReplSync(nil, snapBucket{Partition: p, Data: data}),
			"270b0401036b65790576616c7565",
			walRecDecoder(walTagReplSync, (*snapBucket).fields), snapBucket{Partition: p, Data: data}},
		{"walTagReplDrop", encodeWalReplDrop(nil, replDropMsg{Partitions: []hashspace.Partition{p, p.Sibling()}}),
			"28020b040a04",
			walRecDecoder(walTagReplDrop, (*replDropMsg).fields),
			replDropMsg{Partitions: []hashspace.Partition{p, p.Sibling()}}},
		{"walTagLpdr", encodeWalLpdr(nil, lpdrSyncMsg{State: lpdr, Dissolved: dissolved}),
			"290603040602060e06100a040a12010302",
			walRecDecoder(walTagLpdr, (*lpdrSyncMsg).fields),
			lpdrSyncMsg{State: lpdr, Dissolved: dissolved}},
		{"walTagBoot", encodeWalBoot(nil, owner),
			"2a0a040a",
			walRecDecoder(walTagBoot, (*ownerRef).fields), owner},
		{"walTagMigIntent", encodeWalMigIntent(nil, dropRec),
			"2b060e0b040a040a",
			walRecDecoder(walTagMigIntent, (*walBucketDropRec).fields), dropRec},
		{"walTagMigIntentResolved", encodeWalMigIntentResolved(nil, p),
			"2c0b04",
			walRecDecoder(walTagMigIntentResolved, partitionFields), p},
		{"snapMeta", encodeSnap(&meta, (*snapMeta).fields),
			"0212010a040a02060e06030401020b040a0406100000000000010a040a040a010603040602060e06100a040a12010b0401060e0b040a040a",
			func(b []byte) (any, error) { return decodeSnap("meta", b, (*snapMeta).fields) }, meta},
		{"snapBucket", encodeSnap(&snapBucket{Partition: p, Data: data}, (*snapBucket).fields),
			"020b0401036b65790576616c7565",
			func(b []byte) (any, error) { return decodeSnap("bucket", b, (*snapBucket).fields) },
			snapBucket{Partition: p, Data: data}},
		{"manifest", encodeSnap(&snapManifest{Cut: 123456}, (*snapManifest).fields),
			"02c0c407",
			func(b []byte) (any, error) { return decodeSnap("manifest", b, (*snapManifest).fields) },
			snapManifest{Cut: 123456}},
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
		// A torn record or snapshot file is an error, never a panic and
		// never a value: every strict prefix must be refused.
		for cut := 0; cut < len(raw); cut++ {
			if v, err := tc.dec(raw[:cut]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded to %+v without error", tc.name, cut, len(raw), v)
			}
		}
	}
}

// walRecDecoder decodes a journal record the way applyWalRecord does: the
// tag, then the record's fields walk.  Bytes left over are an error, so a
// golden record that grew a field cannot pass on its old prefix.
func walRecDecoder[T any](tag uint16, fields func(*T, *walker)) func([]byte) (any, error) {
	return func(payload []byte) (any, error) {
		r := transport.NewWireReader(payload)
		if got := r.Uvarint(); r.Err() == nil && got != uint64(tag) {
			return nil, fmt.Errorf("record tag %d, want %d", got, tag)
		}
		var rec T
		fields(&rec, &walker{r: r})
		if r.Err() == nil && r.Len() != 0 {
			return nil, fmt.Errorf("tag %d: %d bytes left undecoded", tag, r.Len())
		}
		return rec, r.Err()
	}
}
