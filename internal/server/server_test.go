package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// ctx is the background context the client calls run under; per-request
// deadlines come from the client's own timeout.
var ctx = context.Background()

// boot starts an in-memory cluster with the given shape and serves its API
// from an httptest server.
func boot(t *testing.T, snodes, vnodes int) (*cluster.Cluster, *httptest.Server) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Pmin: 32, Vmin: 8, Seed: 1}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// TestEndToEndRoundTrip is the acceptance path: PUT → GET → batch GET →
// DELETE over HTTP, then a Prometheus scrape.
func TestEndToEndRoundTrip(t *testing.T) {
	_, ts := boot(t, 4, 16)
	cl := client.New(ts.URL)

	if err := cl.Put(ctx, "alpha", []byte("one")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := cl.Put(ctx, "beta", []byte("two")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, found, err := cl.Get(ctx, "alpha")
	if err != nil || !found || string(v) != "one" {
		t.Fatalf("get alpha = %q, %v, %v; want \"one\", true, nil", v, found, err)
	}

	results, err := cl.MGet(ctx, []string{"alpha", "beta", "missing"})
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("batch get returned %d results, want 3", len(results))
	}
	if !results[0].OK() || !results[0].Found || string(results[0].Value) != "one" {
		t.Fatalf("batch get alpha = %+v", results[0])
	}
	if !results[1].OK() || !results[1].Found || string(results[1].Value) != "two" {
		t.Fatalf("batch get beta = %+v", results[1])
	}
	if !results[2].OK() || results[2].Found {
		t.Fatalf("batch get missing = %+v", results[2])
	}

	found, err = cl.Delete(ctx, "alpha")
	if err != nil || !found {
		t.Fatalf("delete alpha = %v, %v; want true, nil", found, err)
	}
	if _, found, _ = cl.Get(ctx, "alpha"); found {
		t.Fatal("alpha still present after delete")
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{
		"# TYPE dbdht_keys gauge",
		"# TYPE dbdht_msgs_total counter",
		"# TYPE dbdht_batches_total counter",
		"# TYPE dbdht_snode_keys gauge",
		"dbdht_snodes 4",
		"dbdht_vnodes 16",
		"dbdht_http_requests_total{route=\"PUT /v1/kv/{key...}\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestBatchPutDeleteOverHTTP(t *testing.T) {
	_, ts := boot(t, 2, 8)
	cl := client.New(ts.URL)

	items := make([]client.Item, 32)
	keys := make([]string, 32)
	for i := range items {
		keys[i] = fmt.Sprintf("key-%03d", i)
		items[i] = client.Item{Key: keys[i], Value: []byte(fmt.Sprintf("val-%03d", i))}
	}
	results, err := cl.MPut(ctx, items)
	if err != nil {
		t.Fatalf("batch put: %v", err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("batch put %q failed: %s", r.Key, r.Error)
		}
	}
	results, err = cl.MGet(ctx, keys)
	if err != nil {
		t.Fatalf("batch get: %v", err)
	}
	for i, r := range results {
		if !r.Found || string(r.Value) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("batch get %q = %+v", keys[i], r)
		}
	}
	results, err = cl.MDelete(ctx, keys)
	if err != nil {
		t.Fatalf("batch delete: %v", err)
	}
	for _, r := range results {
		if !r.OK() || !r.Found {
			t.Fatalf("batch delete %q = %+v", r.Key, r)
		}
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Keys != 0 {
		t.Fatalf("status reports %d keys after deleting all, want 0", st.Keys)
	}
	if st.Stats.Batches == 0 {
		t.Fatal("status reports zero batches after batch traffic")
	}
}

// TestBatchReplyBytes: a batch reply declares its length instead of being
// chunked, and its bytes are what json.Encoder wrote before.
func TestBatchReplyBytes(t *testing.T) {
	_, ts := boot(t, 2, 8)
	cl := client.New(ts.URL)
	items := make([]client.Item, 64)
	keys := make([]string, len(items))
	for i := range items {
		keys[i] = fmt.Sprintf("key<%03d>", i)
		items[i] = client.Item{Key: keys[i], Value: bytes.Repeat([]byte{byte(i)}, 100)}
	}
	if _, err := cl.MPut(ctx, items); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"op": "get", "items": items})
	resp, err := http.Post(ts.URL+"/v1/kv:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%d-byte reply: Content-Length %d, Transfer-Encoding %v", len(got), resp.ContentLength, resp.TransferEncoding)
	}
	var decoded struct {
		Results []client.Result `json:"results"`
	}
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("reply\n%s\nencoding/json\n%s", got, want.Bytes())
	}
	for i, r := range decoded.Results {
		if !r.Found || !bytes.Equal(r.Value, items[i].Value) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestAdminPlane(t *testing.T) {
	c, ts := boot(t, 2, 4)
	cl := client.New(ts.URL)

	id, err := cl.AddSnode(ctx)
	if err != nil {
		t.Fatalf("add snode: %v", err)
	}
	if got := len(c.Snodes()); got != 3 {
		t.Fatalf("cluster has %d snodes after add, want 3", got)
	}
	v, err := cl.CreateVnode(ctx, id)
	if err != nil {
		t.Fatalf("create vnode: %v", err)
	}
	if v.Vnode == "" || v.Group == "" || v.Snode != id {
		t.Fatalf("create vnode at snode %d returned %+v", id, v)
	}
	// Server-side placement (snode 0 = pick least loaded).
	if v, err := cl.CreateVnode(ctx, 0); err != nil || v.Snode == 0 {
		t.Fatalf("create vnode (auto) = %+v, %v; want a hosting snode", v, err)
	}
	hosted, err := cl.SetEnrollment(ctx, id, 4)
	if err != nil || hosted != 4 {
		t.Fatalf("set enrollment = %d, %v; want 4, nil", hosted, err)
	}
	if err := cl.RemoveSnode(ctx, id); err != nil {
		t.Fatalf("remove snode: %v", err)
	}
	if got := len(c.Snodes()); got != 2 {
		t.Fatalf("cluster has %d snodes after remove, want 2", got)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if len(st.Snodes) != 2 {
		t.Fatalf("status reports %d snodes, want 2", len(st.Snodes))
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := boot(t, 1, 2)

	get := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get("GET", "/v1/kv/nope", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing key: %d, want 404", resp.StatusCode)
	}
	// The empty key is rejected uniformly across all three verbs.
	for _, method := range []string{"PUT", "GET", "DELETE"} {
		if resp := get(method, "/v1/kv/", "x"); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s empty key: %d, want 400", method, resp.StatusCode)
		}
	}
	if resp := get("DELETE", "/v1/snodes/99", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown snode: %d, want 404", resp.StatusCode)
	}
	if resp := get("DELETE", "/v1/snodes/zzz", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE malformed snode id: %d, want 400", resp.StatusCode)
	}
	if resp := get("POST", "/v1/kv:batch", `{"op":"frobnicate","items":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with unknown op: %d, want 400", resp.StatusCode)
	}
	if resp := get("POST", "/v1/kv:batch", `{"op":`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("batch with malformed JSON: %d, want 400", resp.StatusCode)
	}
	if resp := get("PUT", "/v1/snodes/1/enrollment", `{"target":-3}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative enrollment: %d, want 400", resp.StatusCode)
	}
	big := bytes.Repeat([]byte("x"), server.MaxValueBytes+1)
	if resp := get("PUT", "/v1/kv/huge", string(big)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized value: %d, want 413", resp.StatusCode)
	}
	// Every JSON request body, batch or admin, is refused when anything
	// but whitespace follows it (400) and when it is oversized (413).
	for _, rt := range []struct{ method, path, body string }{
		{"POST", "/v1/kv:batch", `{"op":"get","items":[{"key":"a"}]}`},
		{"PUT", "/v1/snodes/1/enrollment", `{"target":2}`},
		{"PUT", "/v1/snodes/1/capacity", `{"weight":1}`},
		{"POST", "/v1/vnodes", `{"snode":1}`},
		{"PUT", "/v1/trace/sampling", `{"rate":0}`},
	} {
		route := rt.method + " " + rt.path
		if resp := get(rt.method, rt.path, rt.body+" \n"); resp.StatusCode/100 != 2 {
			t.Errorf("%s %s: %d, want 2xx", route, rt.body, resp.StatusCode)
		}
		for _, trailing := range []string{`{"op":"put"}`, ` trailing garbage`, `}`} {
			if resp := get(rt.method, rt.path, rt.body+trailing); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s body followed by %q: %d, want 400", route, trailing, resp.StatusCode)
			}
		}
		if resp := get(rt.method, rt.path, string(big)); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: %d, want 413", route, resp.StatusCode)
		}
	}
}

// TestKeysWithSlashes exercises the {key...} wildcard: keys may contain
// path separators.
func TestKeysWithSlashes(t *testing.T) {
	_, ts := boot(t, 1, 2)
	cl := client.New(ts.URL)
	key := "users/42/profile"
	if err := cl.Put(ctx, key, []byte("p")); err != nil {
		t.Fatalf("put: %v", err)
	}
	v, found, err := cl.Get(ctx, key)
	if err != nil || !found || string(v) != "p" {
		t.Fatalf("get %q = %q, %v, %v", key, v, found, err)
	}
}

// TestBalancePlane exercises the balancer admin endpoints: capacity
// re-weighting, a manual round, and the status document.
func TestBalancePlane(t *testing.T) {
	c, ts := boot(t, 2, 8)
	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}

	// Re-weight snode 2 to 4×; the next round should see sigma above any
	// reasonable threshold (equal enrollment over 1:4 capacities).
	resp, body := do("PUT", "/v1/snodes/2/capacity", `{"weight":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set capacity: %d %s", resp.StatusCode, body)
	}
	if resp, body := do("PUT", "/v1/snodes/2/capacity", `{"weight":-1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative capacity: %d %s", resp.StatusCode, body)
	}
	if resp, body := do("POST", "/v1/snodes", `{"capacity":-2}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("add snode with negative capacity: %d %s", resp.StatusCode, body)
	}

	resp, body = do("POST", "/v1/balance", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("balance now: %d %s", resp.StatusCode, body)
	}
	var round api.Balance
	if err := json.Unmarshal(body, &round); err != nil {
		t.Fatalf("balance response %s: %v", body, err)
	}
	if round.Sigma <= 0 || len(round.Loads) != 2 {
		t.Fatalf("balance round = %+v, want positive sigma and 2 load reports", round)
	}
	if round.Moves == 0 {
		t.Fatalf("1:4 capacity skew triggered no enrollment moves: %+v", round)
	}

	resp, body = do("GET", "/v1/balance", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("balance status: %d %s", resp.StatusCode, body)
	}
	var st api.Balance
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds == 0 {
		t.Fatalf("balance status reports zero rounds after a manual round: %+v", st)
	}
	if bs := c.BalancerStats(); bs.Moves == 0 {
		t.Fatalf("cluster stats show no balancer moves: %+v", bs)
	}

	// The new metrics families appear in the exposition.  The per-snode
	// load gauges come from a cache refreshed in the background (a scrape
	// must never block on the cluster-wide load fan-out), so poll a few
	// scrapes for them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = do("GET", "/v1/metrics", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics: %d", resp.StatusCode)
		}
		missing := ""
		for _, want := range []string{"dbdht_balance_rounds_total", "dbdht_balance_sigma_snode", "dbdht_snode_capacity", "dbdht_migration_chunks_total", "dbdht_freeze_timeouts_total"} {
			if !strings.Contains(string(body), want) {
				missing = want
				break
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics exposition lacks %s", missing)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDurabilityPlane exercises the durability surfaces: status block,
// the snapshot trigger, and the dbdht_wal_* metrics families.
func TestDurabilityPlane(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Pmin: 32, Vmin: 8, Seed: 1,
		Durability: cluster.DurabilityConfig{Dir: t.TempDir(), SnapshotInterval: -1},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	id, err := c.AddSnode()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreateVnode(id); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	if err := cl.Put(ctx, "durable-key", []byte("v")); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durability.Enabled || st.Durability.Fsync != "off" || st.Durability.Appends == 0 {
		t.Fatalf("durability status = %+v, want enabled with appends", st.Durability)
	}

	resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, body)
	}
	var snap api.SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil || snap.SnapshotFiles == 0 {
		t.Fatalf("snapshot response %s (err %v), want counted files", body, err)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"dbdht_wal_enabled 1", "dbdht_wal_appends_total", "dbdht_wal_snapshot_files_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition lacks %q", want)
		}
	}
}

// metricValue extracts one unlabelled sample from a Prometheus text
// exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metrics exposition lacks %s", name)
	return 0
}

// TestSaturationSignalsExposed: the WAL's sync time and segment pipeline
// and anti-entropy's work are visible at /v1/metrics — and read as they
// should on a healthy, in-sync R=2 cluster at fsync=batch.
func TestSaturationSignalsExposed(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Pmin: 32, Vmin: 8, Seed: 3, Replicas: 2,
		AntiEntropyInterval: 20 * time.Millisecond,
		Durability: cluster.DurabilityConfig{
			Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1,
			SegmentBytes: 1 << 20,
		},
	}, transport.NewMem())
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
	for i := 0; i < 6; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(server.New(c).Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)
	items := make([]client.Item, 128)
	for i := range items {
		items[i] = client.Item{Key: fmt.Sprintf("sat-%04d", i), Value: []byte("v")}
	}
	if _, err := cl.MPut(ctx, items); err != nil {
		t.Fatal(err)
	}
	// Take two scrapes a few passes apart, once anti-entropy has settled
	// whatever the vnode joins re-homed (no repair between the two).
	scrape := func() string {
		text, err := cl.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	before, text := scrape(), ""
	for deadline := time.Now().Add(10 * time.Second); ; before = text {
		time.Sleep(150 * time.Millisecond)
		text = scrape()
		if metricValue(t, before, "dbdht_repl_repairs_total") == metricValue(t, text, "dbdht_repl_repairs_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas never settled")
		}
	}
	for _, want := range []string{
		"# TYPE dbdht_wal_fsync_seconds histogram",
		"dbdht_wal_fsync_seconds_bucket{le=\"+Inf\"}",
		"# TYPE dbdht_wal_segments_prepared_total counter",
		"# TYPE dbdht_antientropy_probe_msgs_total counter",
		"# TYPE dbdht_antientropy_keys_hashed_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// Every group commit is one observation of the sync histogram.
	if syncs, obs := metricValue(t, text, "dbdht_wal_fsyncs_total"), metricValue(t, text, "dbdht_wal_fsync_seconds_count"); syncs == 0 || syncs != obs {
		t.Errorf("dbdht_wal_fsyncs_total = %v, dbdht_wal_fsync_seconds_count = %v: want equal and non-zero", syncs, obs)
	}
	if sum := metricValue(t, text, "dbdht_wal_fsync_seconds_sum"); sum <= 0 {
		t.Errorf("dbdht_wal_fsync_seconds_sum = %v", sum)
	}
	// Each durable snode made its first segment ahead of use.
	if got := metricValue(t, text, "dbdht_wal_segments_prepared_total"); got < 3 {
		t.Errorf("dbdht_wal_segments_prepared_total = %v, want >= 3 (one per snode)", got)
	}
	// In sync: probes keep flowing, nothing is re-hashed.
	if a, b := metricValue(t, before, "dbdht_antientropy_probe_msgs_total"), metricValue(t, text, "dbdht_antientropy_probe_msgs_total"); b <= a {
		t.Errorf("dbdht_antientropy_probe_msgs_total did not grow over 150 ms of 20 ms passes (%v -> %v)", a, b)
	}
	if a, b := metricValue(t, before, "dbdht_antientropy_keys_hashed_total"), metricValue(t, text, "dbdht_antientropy_keys_hashed_total"); a != b {
		t.Errorf("dbdht_antientropy_keys_hashed_total moved on an in-sync cluster (%v -> %v)", a, b)
	}
}
