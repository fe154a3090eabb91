package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dbdht/client"
	"dbdht/internal/api"
	"dbdht/internal/cluster"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/server"
	"dbdht/internal/wal"
)

// TestTraceEndpoints is the observability acceptance path: a traced MPut
// against a 3-snode R=2 TCP cluster with a group-commit WAL must come
// back from GET /v1/trace/{id} with spans covering routing/fan-out, the
// replica-ack wait and the WAL durability wait, recorded on at least two
// snodes — and the scrape must expose the latency histogram families.
func TestTraceEndpoints(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Pmin: 32, Vmin: 8, Seed: 3, RPCTimeout: 20 * time.Second,
		Replicas: 2, AntiEntropyInterval: time.Hour,
		TraceSample: 1,
		Durability:  cluster.DurabilityConfig{Dir: t.TempDir(), Fsync: wal.FsyncBatch},
	}, transport.NewTCP("127.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 3; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 9; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	items := make([]client.Item, 64)
	for i := range items {
		items[i] = client.Item{
			Key:   fmt.Sprintf("trace-key-%04d", i),
			Value: []byte(fmt.Sprintf("trace-val-%04d", i)),
		}
	}
	results, err := cl.MPut(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("MPut %q: %s", r.Key, r.Error)
		}
	}

	// List: the MPut must show up as a sampled trace.
	var list api.TraceList
	getJSON(t, ts.URL+"/v1/trace", &list)
	if list.Sampling != 1 {
		t.Fatalf("sampling = %v, want 1", list.Sampling)
	}
	var id string
	for _, tr := range list.Traces {
		if tr.Name == "op.mput" {
			id = tr.TraceID
			break
		}
	}
	if id == "" {
		t.Fatalf("no op.mput trace in %+v", list.Traces)
	}

	// By id: the span breakdown must cross snodes and cover the write path.
	var trace api.Trace
	getJSON(t, ts.URL+"/v1/trace/"+id, &trace)
	names := map[string]int{}
	snodes := map[int]bool{}
	for _, sp := range trace.Spans {
		names[sp.Name]++
		if sp.Snode >= 0 {
			snodes[sp.Snode] = true
		}
	}
	for _, want := range []string{
		"op.mput", "batch.rpc", "batch.serve",
		"batch.repl-ack", "repl.fanout", "repl.write", "batch.wal-wait",
	} {
		if names[want] == 0 {
			t.Errorf("trace %s missing %q spans (got %v)", id, want, names)
		}
	}
	if len(snodes) < 2 {
		t.Fatalf("trace spans on %d snode(s), want >= 2", len(snodes))
	}

	// Unknown and malformed ids fail loudly.
	if code := statusOf(t, ts.URL+"/v1/trace/fffffffffffffffe"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id -> %d, want 404", code)
	}
	if code := statusOf(t, ts.URL+"/v1/trace/zzz"); code != http.StatusBadRequest {
		t.Fatalf("malformed trace id -> %d, want 400", code)
	}

	// The scrape exposes the new histogram families.
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE dbdht_batch_rpc_seconds histogram",
		"# TYPE dbdht_replica_ack_wait_seconds histogram",
		"# TYPE dbdht_wal_durable_wait_seconds histogram",
		"# TYPE dbdht_migration_chunk_seconds histogram",
		"# TYPE dbdht_anti_entropy_pass_seconds histogram",
		"# TYPE dbdht_http_request_seconds histogram",
		"dbdht_batch_rpc_seconds_bucket{le=\"+Inf\"}",
		"dbdht_batch_rpc_seconds_count",
		"dbdht_wal_durable_wait_seconds_sum",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Sampling is adjustable live.
	body := strings.NewReader(`{"rate": 0.25}`)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/trace/sampling", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /v1/trace/sampling -> %d", resp.StatusCode)
	}
	if got := c.TraceSampling(); got != 0.25 {
		t.Fatalf("TraceSampling() = %v after PUT, want 0.25", got)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func statusOf(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
