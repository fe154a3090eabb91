package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dbdht/internal/cluster/transport"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus for
// transport.FuzzDecodeFrame: one frame body per wireSamples entry (so
// every wire message kind has a seed), plus a traced frame and a frame
// cut mid-payload.  Run manually with DBDHT_GEN_CORPUS=1 when the wire
// protocol grows a new message; it replaces the old seeds.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DBDHT_GEN_CORPUS") == "" {
		t.Skip("set DBDHT_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	dir := filepath.Join("transport", "testdata", "fuzz", "FuzzDecodeFrame")
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	items := []batchItem{{Key: "seed-key", Value: []byte("seed-value")}}
	seeds := map[string]transport.Envelope{
		// A traced data frame exercises the trace-context header fields.
		"seed-traced-batch-req": {
			From: -1, To: 1, Msg: batchReq{Op: 16, Kind: opGet, Items: items},
			Trace: transport.TraceContext{TraceID: 0xabcdef, SpanID: 2, Sampled: true},
		},
	}
	nth := make(map[string]int) // samples seen per message type
	for _, m := range wireSamples() {
		kind := strings.TrimPrefix(fmt.Sprintf("%T", m), "cluster.")
		seeds[fmt.Sprintf("seed-%s-%d", kind, nth[kind])] = transport.Envelope{From: -1, To: 1, Msg: m}
		nth[kind]++
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
			Op: 17, Kind: opPut,
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
