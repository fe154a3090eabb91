package main

import (
	"math"
	"os"
	"testing"
)

// testdata/metrics_*.txt are two /v1/metrics documents captured from dhtd
// around a short write_durable load (R=2, fsync=batch).
func loadScrape(t *testing.T, name string) scrape {
	t.Helper()
	text, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := parseScrape(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseScrapeCaptured(t *testing.T) {
	before, after := loadScrape(t, "metrics_before.txt"), loadScrape(t, "metrics_after.txt")
	if got := after.sum("dbdht_snodes", nil); got != 4 {
		t.Errorf("dbdht_snodes = %v, want 4", got)
	}
	if got := after.sum("dbdht_replication_factor", nil); got != 2 {
		t.Errorf("dbdht_replication_factor = %v, want 2", got)
	}
	// A labelled family sums over its series, or selects one.
	perSnode := 0.0
	for _, id := range []string{"1", "2", "3", "4"} {
		perSnode += after.sum("dbdht_snode_keys", map[string]string{"snode": id})
	}
	if all := after.sum("dbdht_snode_keys", nil); all != perSnode || all != after.sum("dbdht_keys", nil) {
		t.Errorf("dbdht_snode_keys sums to %v, per snode %v, dbdht_keys %v", all, perSnode, after.sum("dbdht_keys", nil))
	}
	if d := delta(before, after, "dbdht_wal_appends_total"); d <= 0 {
		t.Errorf("WAL appends did not grow between the captures: %v", d)
	}
	// The route label contains spaces, braces and dots.
	batch := map[string]string{"route": "POST /v1/kv:batch"}
	h := histDelta(before.histogram("dbdht_http_request_seconds", batch), after.histogram("dbdht_http_request_seconds", batch))
	reqs := after.sum("dbdht_http_requests_total", batch) - before.sum("dbdht_http_requests_total", batch)
	if float64(h.Count) != reqs || reqs <= 0 {
		t.Errorf("histogram delta holds %d observations, request counter grew by %v", h.Count, reqs)
	}
	var inBuckets uint64
	for _, c := range h.Counts {
		inBuckets += c
	}
	if inBuckets != h.Count {
		t.Errorf("bucket counts sum to %d, _count says %d", inBuckets, h.Count)
	}
	if len(h.Bounds) != 12 || h.Bounds[0] != 1e-6 || h.Bounds[11] != 4 {
		t.Errorf("bounds %v are not dhtd's twelve latency bounds", h.Bounds)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if !(p50 > 0 && p50 <= p99 && p99 < 4) {
		t.Errorf("p50 %v, p99 %v", p50, p99)
	}
	if mean := h.Sum / float64(h.Count); mean < p50/4 || mean > p99*4 {
		t.Errorf("mean %v is far from p50 %v .. p99 %v", mean, p50, p99)
	}
}

func TestParseScrapeSynthetic(t *testing.T) {
	sc, err := parseScrape(`# HELP x_seconds demo
# TYPE x_seconds histogram
x_seconds_bucket{route="GET /a\"b\\c",le="0.001"} 10
x_seconds_bucket{route="GET /a\"b\\c",le="0.004"} 30
x_seconds_bucket{route="GET /a\"b\\c",le="+Inf"} 40
x_seconds_sum{route="GET /a\"b\\c"} 0.2
x_seconds_count{route="GET /a\"b\\c"} 40
plain_total 7
spaced_total   8.5e+00  1700000000
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.sum("plain_total", nil) + sc.sum("spaced_total", nil); got != 15.5 {
		t.Errorf("unlabelled samples sum to %v", got)
	}
	h := sc.histogram("x_seconds", map[string]string{"route": `GET /a"b\c`})
	if h.Count != 40 || len(h.Counts) != 3 || h.Counts[0] != 10 || h.Counts[1] != 20 || h.Counts[2] != 10 || h.Sum != 0.2 {
		t.Fatalf("histogram %+v", h)
	}
	// Rank 20 of 40 lies halfway through the (1 ms, 4 ms] bucket.
	if got := h.Quantile(0.5); math.Abs(got-0.0025) > 1e-12 {
		t.Errorf("p50 = %v, want 0.0025", got)
	}
	if got := histDelta(h, h); got.Count != 0 || got.Quantile(0.5) != 0 {
		t.Errorf("delta of a histogram with itself: %+v", got)
	}
	for _, bad := range []string{`x{a="b} 1`, `x{a=b} 1`, `x`, `x notanumber`} {
		if _, err := parseScrape(bad); err == nil {
			t.Errorf("parseScrape(%q) accepted a malformed line", bad)
		}
	}
}
