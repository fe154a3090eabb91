package cluster

import (
	"fmt"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
)

// loadedCluster boots a cluster of cfg (its Seed, Replicas, RPCTimeout and
// Faults; RPCTimeout 0 is 20 s) on Mem, loads keys through the batch plane
// and returns the keys — every touched partition's route is now cached at
// the handle.
func loadedCluster(t *testing.T, cfg Config) (*Cluster, []string) {
	t.Helper()
	cfg.Pmin, cfg.Vmin, cfg.AntiEntropyInterval = 32, 8, 25*time.Millisecond
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 20 * time.Second
	}
	c, err := New(cfg, transport.NewMem())
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
	for i := 0; i < 12; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 512)
	items := make([]KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("purge-%04d", i)
		items[i] = KV{Key: keys[i], Value: []byte("v")}
	}
	res, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.OK() {
			t.Fatalf("preload %q: %s", r.Key, r.Err)
		}
	}
	// A second pass so the handle's cache holds a route for every key.
	if _, err := c.MGet(keys); err != nil {
		t.Fatal(err)
	}
	return c, keys
}

// TestRemoveSnodePurgesRoutes: a graceful departure must leave no stale
// pointer behind — the first post-removal batch (reads AND writes) takes
// zero failed round-trips.
func TestRemoveSnodePurgesRoutes(t *testing.T) {
	c, keys := loadedCluster(t, Config{Seed: 51, Replicas: 1})
	victim := c.Snodes()[1]
	if err := c.RemoveSnode(victim); err != nil {
		t.Fatal(err)
	}
	checkNoRouteTo(t, c, victim)

	before := c.subFails.Load()
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.OK() || !r.Found {
			t.Fatalf("key %q unreadable after graceful removal: %+v", r.Key, r)
		}
	}
	items := make([]KV, len(keys))
	for i, k := range keys {
		items[i] = KV{Key: k, Value: []byte("v2")}
	}
	wres, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range wres {
		if !r.OK() {
			t.Fatalf("key %q unwritable after graceful removal: %s", r.Key, r.Err)
		}
	}
	if fails := c.subFails.Load() - before; fails != 0 {
		t.Fatalf("first post-removal batches took %d failed round-trips, want 0", fails)
	}
}

// checkNoRouteTo fails t if a cached route still aims at host.
func checkNoRouteTo(t *testing.T, c *Cluster, host transport.NodeID) {
	t.Helper()
	c.routeMu.Lock()
	defer c.routeMu.Unlock()
	for p, rt := range c.routes {
		if rt.ref.Host == host {
			t.Fatalf("route %v still aims at departed snode %d", p, host)
		}
	}
}

// TestKillSnodePurgesRoutes: a crash drops every cached route at the dead
// snode, and once the surviving replicas' promotions are announced the
// first read batch of every key takes zero failed round-trips — the
// handle learned the new primaries instead of discovering the death one
// failed RPC at a time.
func TestKillSnodePurgesRoutes(t *testing.T) {
	c, keys := loadedCluster(t, Config{Seed: 52, Replicas: 2})
	victim := c.Snodes()[1]
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}
	checkNoRouteTo(t, c, victim)
	awaitRoutesFollowOwners(t, c, keys, "promotions announced")

	before := c.subFails.Load()
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.OK() || !r.Found {
			t.Fatalf("key %q unreadable after crash: %+v", r.Key, r)
		}
	}
	if fails := c.subFails.Load() - before; fails != 0 {
		t.Fatalf("first read batch after the promotions took %d failed round-trips, want 0", fails)
	}
	if c.StatsTotal().Promotions == 0 {
		t.Fatal("no replica was promoted after the crash")
	}
}

// TestFailedRPCKeepsRoutes: a failed sub-request proves nothing about its
// host, so the routes aimed at it stay cached; only its departure drops
// them.  The host here is alive, its replies to the handle held back past
// RPCTimeout.
func TestFailedRPCKeepsRoutes(t *testing.T) {
	faults := transport.NewFaults(53)
	c, keys := loadedCluster(t, Config{Seed: 53, Replicas: 1, RPCTimeout: 200 * time.Millisecond, Faults: faults})
	victim := c.Snodes()[1]
	routesTo := func() (n int) {
		c.routeMu.Lock()
		defer c.routeMu.Unlock()
		for _, rt := range c.routes {
			if rt.ref.Host == victim {
				n++
			}
		}
		return n
	}
	held := routesTo()
	if held == 0 {
		t.Fatalf("no cached route aims at snode %d", victim)
	}
	faults.PartitionOneWay([]transport.NodeID{victim}, []transport.NodeID{clientID})
	fails := c.subFails.Load()
	if _, err := c.MGet(keys); err != nil {
		t.Fatal(err)
	}
	if c.subFails.Load() == fails {
		t.Fatal("no sub-request failed while the replies were held")
	}
	if n := routesTo(); n != held {
		t.Fatalf("%d of %d routes at snode %d left the cache after a failed RPC", held-n, held, victim)
	}
	faults.Heal()
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}
	checkNoRouteTo(t, c, victim)
}
