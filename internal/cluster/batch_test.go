package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
)

func batchKeys(n int) ([]string, []KV) {
	keys := make([]string, n)
	items := make([]KV, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-key-%04d", i)
		items[i] = KV{Key: keys[i], Value: []byte(fmt.Sprintf("batch-val-%04d", i))}
	}
	return keys, items
}

func TestBatchRoundTrip(t *testing.T) {
	c := newTestCluster(t, 32, 8, 4, 1)
	growCluster(t, c, 16)
	keys, items := batchKeys(128)

	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("MPut %q: %s", r.Key, r.Err)
		}
	}
	results, err = c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Key != keys[i] {
			t.Fatalf("MGet result %d is for %q, want %q (order must be preserved)", i, r.Key, keys[i])
		}
		if !r.OK() || !r.Found || string(r.Value) != fmt.Sprintf("batch-val-%04d", i) {
			t.Fatalf("MGet %q = %+v", keys[i], r)
		}
	}
	results, err = c.MDelete(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() || !r.Found {
			t.Fatalf("MDelete %q = %+v", r.Key, r)
		}
	}
	// Deleted keys are gone; a second delete reports Found=false.
	results, err = c.MDelete(keys[:8])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() || r.Found {
			t.Fatalf("second MDelete %q = %+v, want Found=false", r.Key, r)
		}
	}
	if st := c.StatsTotal(); st.Batches == 0 {
		t.Fatal("batch traffic left Batches counter at zero")
	}
}

// TestBatchSurvivesRebalancement interleaves batches with vnode enrollment
// (which migrates partitions): batches must chase custody chains and stale
// client-side routes to the current owners.
func TestBatchSurvivesRebalancement(t *testing.T) {
	c := newTestCluster(t, 32, 8, 4, 2)
	growCluster(t, c, 8)
	keys, items := batchKeys(256)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	// Warm the handle's route cache, then invalidate it wholesale by
	// growing the DHT (splits + partition migrations).
	if _, err := c.MGet(keys); err != nil {
		t.Fatal(err)
	}
	growCluster(t, c, 24)
	results, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK() || !r.Found || string(r.Value) != fmt.Sprintf("batch-val-%04d", i) {
			t.Fatalf("MGet %q after rebalancement = %+v", keys[i], r)
		}
	}
}

// TestBatchPartialFailure abruptly stops one snode (no graceful leave, so
// its partitions are simply unreachable): keys owned by survivors succeed,
// keys owned by the dead snode fail individually, and the batch as a whole
// still answers — the documented partial-failure semantics.
func TestBatchPartialFailure(t *testing.T) {
	c := newTestCluster(t, 32, 8, 4, 7)
	growCluster(t, c, 16)
	keys, items := batchKeys(64)

	// The first vnode (the bootstrap fallback route) lives at the first
	// snode; kill a different one so routing itself stays alive.
	ids := c.Snodes()
	dead := ids[2]
	c.mu.Lock()
	s := c.snodes[dead]
	c.mu.Unlock()
	s.stop()

	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	var ok, failed int
	succeeded := make(map[string]bool)
	for _, r := range results {
		if r.OK() {
			ok++
			succeeded[r.Key] = true
		} else {
			failed++
			if r.Err == "" {
				t.Fatalf("failed result for %q carries no error", r.Key)
			}
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("want a partial failure, got %d ok / %d failed", ok, failed)
	}
	// Successful puts taught the handle their owners, so reads of those
	// keys go direct to live snodes and succeed.
	results, err = c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if succeeded[r.Key] {
			if !r.OK() || !r.Found {
				t.Fatalf("MGet %q after successful put = %+v", r.Key, r)
			}
		} else if r.OK() && r.Found {
			t.Fatalf("MGet %q found a value whose put failed", r.Key)
		}
	}
}

// TestBatchOverTCP round-trips batches over the real TCP fabric: the
// batch messages must survive the frame codec.
func TestBatchOverTCP(t *testing.T) {
	c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 21, RPCTimeout: 20 * time.Second}, transport.NewTCP("127.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 8)
	keys, items := batchKeys(64)
	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("MPut %q over TCP: %s", r.Key, r.Err)
		}
	}
	results, err = c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK() || !r.Found || string(r.Value) != fmt.Sprintf("batch-val-%04d", i) {
			t.Fatalf("MGet %q over TCP = %+v", keys[i], r)
		}
	}
}

// TestBatchValuesAreNotShared: the cluster keeps no slice a caller holds.
// Overwriting the bytes passed to MPut after it returned, or the bytes an
// MGet returned, never changes what the next MGet reads — on either
// medium, since every value crosses the codec between the handle and the
// snodes.
func TestBatchValuesAreNotShared(t *testing.T) {
	for name, mk := range map[string]func() transport.Network{
		"mem": func() transport.Network { return transport.NewMem() },
		"tcp": func() transport.Network { return transport.NewTCP("127.0.0.1") },
	} {
		t.Run(name, func(t *testing.T) {
			c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 22, Replicas: 2, RPCTimeout: 20 * time.Second}, mk())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				if _, err := c.AddSnode(); err != nil {
					t.Fatal(err)
				}
			}
			growCluster(t, c, 6)
			keys, items := batchKeys(32)
			if _, err := c.MPut(items); err != nil {
				t.Fatal(err)
			}
			mustRead := func(what string) []BatchResult {
				t.Helper()
				results, err := c.MGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if want := fmt.Sprintf("batch-val-%04d", i); !r.OK() || string(r.Value) != want {
						t.Fatalf("%s: MGet %q = %+v, want %q", what, keys[i], r, want)
					}
				}
				return results
			}
			for _, it := range items {
				copy(it.Value, "XXXXXXXXX")
			}
			for _, r := range mustRead("after overwriting the MPut input") {
				copy(r.Value, "YYYYYYYYY")
			}
			mustRead("after overwriting an MGet result")
		})
	}
}

func TestDataOpsOnEmptyAndClosedCluster(t *testing.T) {
	// No snodes at all: every data op fails fast.
	c := newTestCluster(t, 32, 8, 0, 3)
	if err := c.Put("k", []byte("v")); err == nil || !strings.Contains(err.Error(), "no snodes") {
		t.Fatalf("Put on snode-less cluster: %v", err)
	}
	if _, _, err := c.Get("k"); err == nil {
		t.Fatal("Get on snode-less cluster succeeded")
	}
	if _, err := c.Delete("k"); err == nil {
		t.Fatal("Delete on snode-less cluster succeeded")
	}
	if _, err := c.MGet([]string{"k"}); err == nil {
		t.Fatal("MGet on snode-less cluster succeeded")
	}

	// Snodes but no vnodes: the DHT is empty, there is no route.
	c2 := newTestCluster(t, 32, 8, 2, 4)
	if err := c2.Put("k", []byte("v")); err == nil || !strings.Contains(err.Error(), "no route") {
		t.Fatalf("Put on vnode-less cluster: %v", err)
	}
	results, err := c2.MPut([]KV{{Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK() || !strings.Contains(results[0].Err, "no route") {
		t.Fatalf("MPut on vnode-less cluster = %+v", results[0])
	}

	// Closed cluster: the fabric is gone; single ops error, batches report
	// the failure per key.
	c3, err := New(Config{Pmin: 32, Vmin: 8, Seed: 5}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.AddSnode(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c3.CreateVnode(c3.Snodes()[0]); err != nil {
		t.Fatal(err)
	}
	c3.Close()
	if err := c3.Put("k", []byte("v")); err == nil {
		t.Fatal("Put on closed cluster succeeded")
	}
	if _, _, err := c3.Get("k"); err == nil {
		t.Fatal("Get on closed cluster succeeded")
	}
	results, err = c3.MGet([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK() {
		t.Fatal("MGet on closed cluster reported per-key success")
	}
}

func TestDataOpsAfterRemoveSnode(t *testing.T) {
	c := newTestCluster(t, 32, 8, 4, 6)
	growCluster(t, c, 16)
	keys, items := batchKeys(128)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	// Warm the route cache so some cached owners go stale on removal.
	if _, err := c.MGet(keys); err != nil {
		t.Fatal(err)
	}
	ids := c.Snodes()
	if err := c.RemoveSnode(ids[1]); err != nil {
		t.Fatal(err)
	}
	// Single-key and batched reads all still resolve: data migrated to the
	// survivors and routing chains were repaired.
	for _, k := range keys[:16] {
		if _, found, err := c.Get(k); err != nil || !found {
			t.Fatalf("Get %q after RemoveSnode = %v, %v", k, found, err)
		}
	}
	results, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.OK() || !r.Found || string(r.Value) != fmt.Sprintf("batch-val-%04d", i) {
			t.Fatalf("MGet %q after RemoveSnode = %+v", keys[i], r)
		}
	}
	if err := c.Put("post-removal", []byte("v")); err != nil {
		t.Fatalf("Put after RemoveSnode: %v", err)
	}
	if _, err := c.Delete("post-removal"); err != nil {
		t.Fatalf("Delete after RemoveSnode: %v", err)
	}

	// Shrink further: data keeps flowing with each departure.
	ids = c.Snodes()
	if err := c.RemoveSnode(ids[len(ids)-1]); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:16] {
		if _, found, err := c.Get(k); err != nil || !found {
			t.Fatalf("Get %q after second RemoveSnode = %v, %v", k, found, err)
		}
	}
	// Operations aimed at the departed snode are rejected by the admin
	// plane.
	if _, _, err := c.CreateVnode(ids[len(ids)-1]); err == nil {
		t.Fatal("CreateVnode at removed snode succeeded")
	}
}
