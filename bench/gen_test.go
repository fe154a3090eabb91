package main

import (
	"strings"
	"testing"
	"time"
)

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := streamFingerprint(7, w, clients, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := streamFingerprint(7, w, clients, 5000)
		c, _ := streamFingerprint(8, w, clients, 5000)
		if a != b {
			t.Errorf("%s: same seed gave fingerprints %s and %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same fingerprint %s", w.Name, a)
		}
	}
	a, _ := streamFingerprint(7, workloads[0], clients, 5000)
	b, _ := streamFingerprint(7, workloads[1], clients, 5000)
	if a == b {
		t.Error("two workloads share a key stream")
	}
}

func TestOpStreamShape(t *testing.T) {
	for _, w := range workloads {
		s, err := newOpStream(1, w, 0, 5000)
		if err != nil {
			t.Fatal(err)
		}
		writes, n := 0, 2000
		var keys []int
		for i := 0; i < n; i++ {
			var kind opKind
			kind, keys = s.next(keys)
			if len(keys) != w.Batch {
				t.Fatalf("%s: %d keys in a request, want %d", w.Name, len(keys), w.Batch)
			}
			seen := map[int]bool{}
			for _, k := range keys {
				if seen[k] || k < 0 || k >= 5000 {
					t.Fatalf("%s: key %d repeated or out of range in one request", w.Name, k)
				}
				seen[k] = true
			}
			if (w.Batch > 1) != (kind == opMPut || kind == opMGet) {
				t.Fatalf("%s: op kind %d does not match batch size %d", w.Name, kind, w.Batch)
			}
			if kind.write() {
				writes++
			}
		}
		if got := float64(writes) / float64(n); got < w.WriteFrac-0.05 || got > w.WriteFrac+0.05 {
			t.Errorf("%s: write share %.2f, want %.2f", w.Name, got, w.WriteFrac)
		}
	}
}

func TestValueRoundTripAndCorruption(t *testing.T) {
	v := encodeValue(42, 1, 9)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes", len(v))
	}
	if w, seq, err := decodeValue(42, v); err != nil || w != 1 || seq != 9 {
		t.Fatalf("round trip gave writer %d seq %d err %v", w, seq, err)
	}
	if _, _, err := decodeValue(43, v); err == nil {
		t.Error("a value read under the wrong key passed")
	}
	v[valueSize-1] ^= 1
	if _, _, err := decodeValue(42, v); err == nil {
		t.Error("a flipped fill bit passed")
	}
	if _, _, err := decodeValue(42, v[:50]); err == nil {
		t.Error("a truncated value passed")
	}
}

// TestStaleReason pins what read-back accepts as the surviving value of a
// key two writers wrote.
func TestStaleReason(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	logs := []*clientLog{
		{acked: []ackRec{{seq: 5, start: at(10), end: at(20)}, {}}, issued: 8},
		{acked: []ackRec{{seq: 3, start: at(30), end: at(40)}, {}}, issued: 4},
	}
	for _, tc := range []struct {
		name   string
		key    int
		writer uint32
		seq    uint64
		lost   string // substring of the reason; "" = allowed
	}{
		{"the later acknowledged write survives", 0, 1, 3, ""},
		{"a write that finished before another began", 0, 0, 5, "acknowledged after it"},
		{"older than the writer's own acknowledged write", 0, 0, 4, "older than"},
		{"a later write that was never acknowledged may have landed", 0, 0, 7, ""},
		{"a sequence number never issued", 0, 1, 5, "never issued"},
		{"an unknown writer", 0, 9, 1, "never issued"},
		{"the preloaded value under acknowledged writes", 0, preloadID, 0, "preloaded"},
		{"the preloaded value of an unwritten key", 1, preloadID, 0, ""},
	} {
		got := staleReason(tc.key, tc.writer, tc.seq, logs)
		if (tc.lost == "") != (got == "") || !strings.Contains(got, tc.lost) {
			t.Errorf("%s: reason %q, want one containing %q", tc.name, got, tc.lost)
		}
	}
	// Overlapping acknowledged writes: either may survive.
	logs[1].acked[0] = ackRec{seq: 3, start: at(15), end: at(40)}
	if got := staleReason(0, 0, 5, logs); got != "" {
		t.Errorf("a write concurrent with the other writer's was rejected: %s", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{5: 1, 100: 0.9, 1000: 0.99, 100000: 0.99} {
		if got := tailQuantile(n); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}
