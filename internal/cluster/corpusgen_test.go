package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus for
// transport.FuzzDecodeFrame: one frame body per wire message kind, plus a
// gob-fallback control frame and a traced frame.  Run manually with
// DBDHT_GEN_CORPUS=1 when the wire protocol grows a new message.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DBDHT_GEN_CORPUS") == "" {
		t.Skip("set DBDHT_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("..", "cluster", "transport", "testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := hashspace.Partition{Level: 3, Prefix: 5}
	items := []batchItem{{Key: "seed-key", Value: []byte("seed-value")}}
	seeds := map[string]transport.Envelope{
		"seed-lookup-req":  {From: -1, To: 1, Msg: lookupReq{Op: 7, R: 0xdead, ReplyTo: -1, Hops: 1}},
		"seed-lookup-resp": {From: 1, To: -1, Msg: lookupResp{Op: 7, Host: 1, Partition: p}},
		"seed-batch-req":   {From: -1, To: 1, Msg: batchReq{Op: 8, Kind: opPut, Items: items, ReplyTo: -1}},
		"seed-batch-resp":  {From: 1, To: -1, Msg: batchResp{Op: 8, Results: []batchItemResp{{Value: []byte("seed-value"), Found: true}}}},
		"seed-repl-write-req": {From: 1, To: 2, Msg: replWriteReq{
			Op: 9, Kind: opPut, ReplyTo: 1,
			Sets: []replWriteSet{{Partition: p, Items: items, Ver: 4}},
		}},
		"seed-repl-write-resp": {From: 2, To: 1, Msg: replWriteResp{Op: 9}},
		"seed-repl-probe-req":  {From: 1, To: 2, Msg: replProbeReq{Op: 10, Digests: []partDigest{{Partition: p, Count: 3, Sum: 0xfeed}}, ReplyTo: 1}},
		"seed-repl-probe-resp": {From: 2, To: 1, Msg: replProbeResp{Op: 10, OutOfSync: []hashspace.Partition{p}}},
		"seed-ping-req":        {From: -1, To: 1, Msg: pingReq{Op: 11, ReplyTo: -1}},
		"seed-ping-resp":       {From: 1, To: -1, Msg: pingResp{Op: 11}},
		"seed-mig-begin-req":   {From: 1, To: 2, Msg: migBeginReq{Op: 12, Partition: p, ReplyTo: 1}},
		"seed-mig-begin-resp":  {From: 2, To: 1, Msg: migBeginResp{Op: 12}},
		"seed-mig-chunk-req": {From: 1, To: 2, Msg: migChunkReq{
			Op: 13, Partition: p, ReplyTo: 1,
			Items: []migItem{{Key: "seed-key", Value: []byte("seed-value")}},
		}},
		"seed-mig-chunk-resp":  {From: 2, To: 1, Msg: migChunkResp{Op: 13}},
		"seed-mig-commit-req":  {From: 1, To: 2, Msg: migCommitReq{Op: 14, Partition: p, ReplyTo: 1}},
		"seed-mig-commit-resp": {From: 2, To: 1, Msg: migCommitResp{Op: 14}},
		"seed-mig-abort":       {From: 1, To: 2, Msg: migAbortMsg{Partition: p}},
		"seed-load-req":        {From: -1, To: 1, Msg: loadReportReq{Op: 15, ReplyTo: -1}},
		"seed-load-resp":       {From: 1, To: -1, Msg: loadReportResp{Op: 15, Vnodes: 2, Keys: 42}},
		// Control messages ride the gob fallback format.
		"seed-gob-control": {From: 1, To: 2, Msg: snodeRecoveredMsg{Recovered: 1}},
		// A traced data frame exercises the trace-context header fields.
		"seed-traced-batch-req": {
			From: -1, To: 1, Msg: batchReq{Op: 16, Kind: opGet, Items: items, ReplyTo: -1},
			Trace: transport.TraceContext{TraceID: 0xabcdef, SpanID: 2, Sampled: true},
		},
	}
	for name, env := range seeds {
		frame, err := transport.AppendFrame(nil, env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body := frame[4:] // FuzzDecodeFrame consumes the body after the length prefix
		if err := writeSeed(dir, name, body); err != nil {
			t.Fatal(err)
		}
	}

	// A multi-item batch frame cut mid-payload: the decoder must reject a
	// body whose declared item lengths run past the truncated end instead
	// of over-reading.  This is the shape a torn TCP read (or a nemesis
	// drop landing mid-burst) would hand the framer.
	burst, err := transport.AppendFrame(nil, transport.Envelope{
		From: -1, To: 1, Msg: batchReq{
			Op: 17, Kind: opPut, ReplyTo: -1,
			Items: []batchItem{
				{Key: "burst-key-0", Value: []byte("burst-value-0")},
				{Key: "burst-key-1", Value: []byte("burst-value-1")},
				{Key: "burst-key-2", Value: []byte("burst-value-2")},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := burst[4:]
	// Cut inside the second item's payload, past the header and first item.
	if err := writeSeed(dir, "seed-truncated-mid-burst", body[:len(body)*2/3]); err != nil {
		t.Fatal(err)
	}
}

func writeSeed(dir, name string, body []byte) error {
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(body)))
	return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
}
