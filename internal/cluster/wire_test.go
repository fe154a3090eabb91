package cluster

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

// roundTrip frames msg as an envelope, decodes it, and returns the decoded
// payload.
func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: -1, To: 42, Msg: msg})
	if err != nil {
		t.Fatalf("AppendFrame(%T): %v", msg, err)
	}
	env, err := transport.DecodeFrame(frame[4:])
	if err != nil {
		t.Fatalf("DecodeFrame(%T): %v", msg, err)
	}
	if env.From != -1 || env.To != 42 {
		t.Fatalf("%T: envelope header mangled: %+v", msg, env)
	}
	return env.Msg
}

// TestWireRoundTrips round-trips every hot message type through the binary
// frame codec and requires an exact value match.
func TestWireRoundTrips(t *testing.T) {
	p := hashspace.Partition{Prefix: 0b1011, Level: 4}
	owner := VnodeName{Snode: 3, Local: 7}
	cases := []any{
		lookupReq{Op: 9, R: 1 << 60, ReplyTo: -1, Hops: 12},
		lookupResp{Op: 10, Owner: owner, Host: 3, Partition: p,
			Group: core.GroupID{Bits: 0b110, Len: 3}, Leader: 5, Err: "boom"},
		lookupResp{Op: 11}, // zero-valued optional fields
		batchReq{Op: 12, Kind: opPut, Items: []batchItem{
			{Key: "a", Value: []byte("va")},
			{Key: "b"}, // nil value (deletes, gets)
		}, ReplyTo: -1, Hops: 2, ReadReplica: true, private: true},
		batchReq{Op: 13, Kind: opGet, private: true}, // empty batch
		batchResp{Op: 14, Results: []batchItemResp{
			{Value: []byte("v"), Found: true},
			{Err: "missing"},
		}, Served: []routeEntry{
			{Partition: p, Ref: ownerRef{Vnode: owner, Host: 3}, Replicas: []transport.NodeID{1, 2}},
			{Partition: hashspace.Partition{}, Ref: ownerRef{Vnode: VnodeName{Snode: 1}, Host: 1}},
		}},
		replWriteReq{Op: 15, Kind: opDel, Sets: []replWriteSet{
			{Partition: p, Items: []batchItem{{Key: "k", Value: []byte("v")}}},
			{Partition: p.Sibling()},
		}, ReplyTo: 4, private: true},
		replWriteResp{Op: 16, Err: "lagging"},
		replProbeReq{Op: 17, Digests: []partDigest{
			{Partition: p, Count: 321, Sum: 1<<63 + 5},
			{Partition: p.Sibling()}, // empty bucket
		}, ReplyTo: 2},
		replProbeReq{Op: 17, ReplyTo: 2}, // nothing placed at the host
		replProbeResp{Op: 18, OutOfSync: []hashspace.Partition{p, p.Sibling()}},
		replProbeResp{Op: 18}, // all in sync
		pingReq{Op: 19, ReplyTo: -1},
		pingResp{Op: 20},
		migBeginReq{Op: 21, Group: core.GroupID{Bits: 0b10, Len: 2}, To: owner,
			Partition: p, Level: 4, ReplyTo: 6},
		migBeginResp{Op: 22, Err: "not allocated"},
		migChunkReq{Op: 23, To: owner, Partition: p, Items: []migItem{
			{Key: "live", Value: []byte("v1")},
			{Key: "gone", Del: true},
			{Key: "empty"}, // nil value, not deleted
		}, ReplyTo: 6, private: true},
		migChunkReq{Op: 24, To: owner, Partition: p, private: true}, // empty chunk
		migChunkResp{Op: 25},
		migCommitReq{Op: 26, To: owner, Partition: p, Items: []migItem{
			{Key: "final", Value: []byte("vf")},
		}, ReplyTo: 6, private: true},
		migCommitResp{Op: 27, Err: "boom"},
		migAbortMsg{To: owner, Partition: p},
		loadReportReq{Op: 28, ReplyTo: -1},
		loadReportResp{Op: 29, Vnodes: 4, Keys: 12345, Quota: 0.375,
			Reads: 1234.5, Writes: 0.25, Bytes: 9.75e6},
		loadReportResp{Op: 30}, // all-zero floats
	}
	for _, want := range cases {
		got := roundTrip(t, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %T:\n got  %+v\n want %+v", want, got, want)
		}
	}
}

// TestWireTruncatedFrames cuts a realistic batchReq frame at every byte
// offset: each prefix must decode to a clean error, never panic.
func TestWireTruncatedFrames(t *testing.T) {
	items := make([]batchItem, 16)
	for i := range items {
		items[i] = batchItem{Key: fmt.Sprintf("key-%04d", i), Value: []byte("0123456789abcdef")}
	}
	msg := batchReq{Op: 77, Kind: opPut, Items: items, ReplyTo: -1}
	frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	for cut := 0; cut < len(body); cut++ {
		if _, err := transport.DecodeFrame(body[:cut]); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) decoded without error", cut, len(body))
		}
	}
	// Flipping the length of the items array to a huge value must error,
	// not allocate.
	corrupt := append([]byte(nil), body...)
	// Body layout: version, format, flags, From varint, To varint,
	// tag uvarint, Op uvarint, Kind varint, then the item count.
	off := 3
	for n := 0; n < 4; n++ { // From, To, tag, Op, Kind occupy varints
		_, w := binary.Uvarint(corrupt[off:])
		off += w
	}
	_, w := binary.Varint(corrupt[off:])
	off += w
	huge := binary.AppendUvarint(nil, 1<<50)
	corrupt = append(corrupt[:off], append(huge, corrupt[off:]...)...)
	if _, err := transport.DecodeFrame(corrupt); err == nil {
		t.Fatal("frame with a corrupt huge item count decoded without error")
	}
}

// TestWireRejectsInvalidPartition: a structurally valid frame carrying an
// out-of-range partition (level beyond MaxLevel, or stray prefix bits)
// must decode to an error — downstream bookkeeping indexes arrays by
// level, so an unvalidated level would be a remote panic.
func TestWireRejectsInvalidPartition(t *testing.T) {
	for _, bad := range []struct {
		name string
		pre  uint64
		lvl  uint64
	}{
		{"level-past-max", 0, uint64(hashspace.MaxLevel) + 1},
		{"level-huge", 0, 300},
		{"prefix-bits-above-level", 0b111, 1},
	} {
		t.Run(bad.name, func(t *testing.T) {
			// Borrow version, format and flags from a frame the codec made
			// itself, so the hand-rolled payload is what gets rejected.
			frame, err := transport.AppendFrame(nil, transport.Envelope{From: 1, To: 2, Msg: pingResp{}})
			if err != nil {
				t.Fatal(err)
			}
			body := append([]byte(nil), frame[4:7]...)
			body = transport.AppendVarint(body, 1)
			body = transport.AppendVarint(body, 2)
			body = transport.AppendUvarint(body, uint64(wireTagReplProbeReq))
			body = transport.AppendUvarint(body, 9) // Op
			body = transport.AppendUvarint(body, 1) // one digest
			body = transport.AppendUvarint(body, bad.pre)
			body = transport.AppendUvarint(body, bad.lvl)
			body = transport.AppendVarint(body, 0) // Count
			body = transport.AppendUvarint(body, 0)
			body = transport.AppendVarint(body, 1) // ReplyTo
			if _, err := transport.DecodeFrame(body); err == nil {
				t.Fatalf("frame with partition (prefix=%b, level=%d) decoded without error", bad.pre, bad.lvl)
			}
		})
	}
}

// TestDataPlaneStaysOnBinaryCodec is the codec-path guarantee: once a TCP
// cluster is serving, batched operations, single-key operations, lookups
// and the replica write fan-out must not touch the gob fallback — only
// rare control-plane traffic may.
func TestDataPlaneStaysOnBinaryCodec(t *testing.T) {
	c, err := New(Config{
		Pmin: 16, Vmin: 4, Seed: 7, RPCTimeout: 20 * time.Second,
		Replicas: 2, AntiEntropyInterval: time.Hour, // keep repair traffic out of the measured window
	}, transport.NewTCP("127.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 8; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the route caches so the measured window has no cold-path
	// surprises, then let in-flight control traffic drain.
	var kv []KV
	var keys []string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("codec-key-%d", i)
		kv = append(kv, KV{Key: k, Value: []byte("v")})
		keys = append(keys, k)
	}
	if _, err := c.MPut(kv); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	binEncBefore, gobEncBefore, _, _ := transport.CodecCounters()
	for round := 0; round < 3; round++ {
		if _, err := c.MPut(kv); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MGet(keys); err != nil {
			t.Fatal(err)
		}
		if _, err := c.MDelete(keys[:4]); err != nil {
			t.Fatal(err)
		}
		if err := c.Put("codec-single", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get("codec-single"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Lookup("codec-key-0"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ping(); err != nil { // drain the batch/replica responses
		t.Fatal(err)
	}
	binEnc, gobEnc, _, _ := transport.CodecCounters()
	if gobEnc != gobEncBefore {
		t.Fatalf("data plane fell back to gob: %d gob encodes during the measured window", gobEnc-gobEncBefore)
	}
	if binEnc == binEncBefore {
		t.Fatal("no binary encodes recorded — counters broken or wrong fabric")
	}
}
