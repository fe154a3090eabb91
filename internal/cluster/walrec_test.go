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

// TestDiskFormatGolden pins the bytes of every journal record — the log
// and snapshot files hold nothing else: a fixed value must encode to the
// committed hex and the committed hex must decode back to the value.  The
// record layouts are a compatibility contract (an old data directory must
// still recover), so a diff here is a format change that needs a new tag —
// never a golden update alone.  The cases come from walking walRecords,
// so a row without golden bytes fails.  Maps hold one entry because the
// kvmap walk writes in map iteration order.
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

	// One fixed value per journal tag; want is what the bytes decode back
	// to where the journal keeps less than the value holds (nil: rec).
	records := map[uint16]struct {
		rec, want walRecord
		golden    string
	}{
		walTagWrite: {rec: &walWriteRec{Kind: opPut, Partition: p, Items: items},
			golden: "20020b0402026b31027631026b3200"},
		// Ver and Group are volatile election metadata: not journaled.
		walTagReplWrite: {rec: &walReplWriteRec{Kind: opDel, Sets: []replWriteSet{{Partition: p, Items: items, Ver: 7, Group: g}}},
			want:   &walReplWriteRec{Kind: opDel, Sets: []replWriteSet{{Partition: p, Items: items}}},
			golden: "2104010b0402026b31027631026b3200"},
		walTagVnode:     {rec: &vnodeRec, golden: "22060e06030401020b040a04"},
		walTagVnodeGone: {rec: &walVnodeGoneRec{Name: vn}, golden: "23060e"},
		// Op belongs to the request, not the split: not journaled.
		walTagSplitAll: {rec: &walSplitAllRec{Op: 9, Group: g, NewLevel: 5},
			want:   &walSplitAllRec{Group: g, NewLevel: 5},
			golden: "24060305"},
		walTagMigInstall: {rec: &walMigInstallRec{To: vn, Group: g, Level: 4, Partition: p, Data: newStore(data)},
			golden: "25060e0603040b0401036b65790576616c7565"},
		walTagBucketDrop: {rec: &dropRec, golden: "26060e0b040a040a"},
		walTagReplSync: {rec: &walReplSyncRec{Partition: p, Data: newStore(data)},
			golden: "270b0401036b65790576616c7565"},
		walTagReplDrop: {rec: &replDropMsg{Partitions: []hashspace.Partition{p, p.Sibling()}},
			golden: "28020b040a04"},
		walTagLpdr: {rec: &lpdrSyncMsg{State: lpdr, Dissolved: dissolved},
			golden: "290603040602060e06100a040a12010302"},
		walTagBoot:              {rec: &bootstrapInfo{Owner: owner}, golden: "2a0a040a"},
		walTagMigIntent:         {rec: (*walMigIntentRec)(&dropRec), golden: "2b060e0b040a040a"},
		walTagMigIntentResolved: {rec: &walMigIntentResolvedRec{Partition: p}, golden: "2c0b04"},
		walTagSnapEnd: {rec: &walSnapEndRec{NextLocal: 9, Partial: []hashspace.Partition{p}, Cut: 123456},
			golden: "2d12010b04c0c407"},
		walTagReplSplit: {rec: &walReplSplitRec{Partition: p}, golden: "2e0b04"},
	}

	type goldenCase struct {
		name   string
		enc    []byte
		golden string
		dec    func([]byte) (any, error)
		want   any
	}
	var cases []goldenCase
	for _, row := range walRecords {
		g, ok := records[row.tag]
		if !ok {
			t.Errorf("walRecords row for tag %d (%T) has no golden bytes", row.tag, row.new())
			continue
		}
		if got := row.new().walTag(); got != row.tag {
			t.Errorf("walRecords row for tag %d makes a %T, which journals under tag %d", row.tag, row.new(), got)
		}
		if reflect.TypeOf(g.rec) != reflect.TypeOf(row.new()) {
			t.Errorf("tag %d: golden value is a %T, the row makes a %T", row.tag, g.rec, row.new())
		}
		if g.want == nil {
			g.want = g.rec
		}
		cases = append(cases, goldenCase{fmt.Sprintf("tag %d %T", row.tag, g.rec), appendRecord(nil, g.rec), g.golden, walRecDecoder(row.tag, row.new), g.want})
	}
	if len(records) != len(walRecords) {
		t.Errorf("golden bytes for %d journal tags, walRecords has %d rows", len(records), len(walRecords))
	}

	// The batch path journals a write record as header + items appended one
	// by one; it must stay byte-identical to the walWriteRec walk.
	streamed := encodeWalWriteHeader(nil, opPut, p, len(items))
	for _, it := range items {
		streamed = transport.AppendString(streamed, it.Key)
		streamed = transport.AppendBytes(streamed, it.Value)
	}
	cases = append(cases,
		goldenCase{"walTagWrite-streamed", streamed,
			"20020b0402026b31027631026b3200",
			walRecDecoder(walTagWrite, func() walRecord { return new(walWriteRec) }),
			&walWriteRec{Kind: opPut, Partition: p, Items: items}},
	)
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
		// A torn record is an error, never a panic and never a value:
		// every strict prefix must be refused.
		for cut := 0; cut < len(raw); cut++ {
			if v, err := tc.dec(raw[:cut]); err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded to %+v without error", tc.name, cut, len(raw), v)
			}
		}
	}
}

// walRecDecoder decodes a journal record the way applyWalRecordLocked does: the
// tag, then the fields walk of the record its table row makes.  Bytes left
// over are an error, so a golden record that grew a field cannot pass on
// its old prefix.
func walRecDecoder(tag uint16, newRec func() walRecord) func([]byte) (any, error) {
	return func(payload []byte) (any, error) {
		r := transport.NewWireReader(payload)
		if got := r.Uvarint(); r.Err() == nil && got != uint64(tag) {
			return nil, fmt.Errorf("record tag %d, want %d", got, tag)
		}
		rec := newRec()
		rec.fields(&walker{r: r})
		if r.Err() == nil && r.Len() != 0 {
			return nil, fmt.Errorf("tag %d: %d bytes left undecoded", tag, r.Len())
		}
		return rec, r.Err()
	}
}

// TestStaleLpdrSyncIgnored replays the §3.6 race in which a parent
// leader's sync, sent before the group split, reaches a member host only
// after the child group's sync: the late sync must neither move the
// member back to the dissolved parent (group or level) nor re-create the
// parent's LPDR replica.
func TestStaleLpdrSyncIgnored(t *testing.T) {
	parent := core.GroupID{Bits: 0b1, Len: 1}
	child, _ := parent.Split()
	vn := VnodeName{Snode: 3, Local: 0}
	sync := func(g core.GroupID, level uint8, leader transport.NodeID) *lpdrSyncMsg {
		return &lpdrSyncMsg{State: lpdrState{Group: g, Level: level, Leader: leader,
			Members: []memberInfo{{Vnode: vn, Host: 3, Count: 4}}}}
	}
	cfg, err := Config{Pmin: 4, Vmin: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, childLevel := range []uint8{6, 7} {
		t.Run(fmt.Sprintf("child at level %d", childLevel), func(t *testing.T) {
			s, err := newSnode(3, cfg, transport.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			s.mutate(&walVnodeRec{Name: vn})
			s.mutate(sync(parent, 6, 1)) // the join completes in the parent
			split := sync(child, childLevel, 2)
			split.Dissolved = []core.GroupID{parent}
			s.mutate(split)
			s.mutate(sync(parent, 6, 1)) // the parent's sync, overtaken
			s.mu.Lock()
			defer s.mu.Unlock()
			if vs := s.vnodes[vn]; vs.group != child || vs.level != childLevel {
				t.Errorf("vnode in group %v at level %d, want the child %v at level %d", vs.group, vs.level, child, childLevel)
			}
			if _, ok := s.replicas[parent]; ok {
				t.Errorf("the late sync re-created the dissolved parent's LPDR replica")
			}
		})
	}
}
