package cluster

import (
	"fmt"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// checkRoutesFollowOwners fails t unless, for every key, the handle's
// deepest cached route names the partition and vnode that the route's
// host itself holds for the key.
func checkRoutesFollowOwners(t *testing.T, c *Cluster, keys []string, step string) {
	t.Helper()
	if err := routesFollowOwners(c, keys); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// routesFollowOwners is checkRoutesFollowOwners' verdict: nil, or the
// first key whose cached route does not name its owner.
func routesFollowOwners(c *Cluster, keys []string) error {
	for _, k := range keys {
		h := hashspace.HashString(k)
		var (
			p  hashspace.Partition
			rt route
			ok bool
		)
		c.routeMu.Lock()
		for _, l := range c.routeLvls.Desc {
			p = hashspace.Containing(h, l)
			if rt, ok = c.routes[p]; ok {
				break
			}
		}
		c.routeMu.Unlock()
		if !ok {
			return fmt.Errorf("no cached route for %q", k)
		}
		c.mu.Lock()
		s := c.snodes[rt.ref.Host]
		c.mu.Unlock()
		if s == nil {
			return fmt.Errorf("route %v of %q aims at departed snode %d", p, k, rt.ref.Host)
		}
		s.mu.Lock()
		ref, owned, isOwner := s.ownedForLocked(h)
		s.mu.Unlock()
		switch {
		case !isOwner:
			return fmt.Errorf("route %v of %q aims at snode %d, which owns nothing covering it", p, k, s.id)
		case owned != p || ref.vs.name != rt.ref.Vnode:
			return fmt.Errorf("handle routes %q to %v of vnode %v, snode %d holds it in %v of vnode %v",
				k, p, rt.ref.Vnode, s.id, owned, ref.vs.name)
		}
	}
	return nil
}

// awaitRoutesFollowOwners polls routesFollowOwners for up to 5 s: the
// wait for a crash's promotions to be announced to the handle.
func awaitRoutesFollowOwners(t *testing.T, c *Cluster, keys []string, step string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for err := routesFollowOwners(c, keys); err != nil; err = routesFollowOwners(c, keys) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: 5s after the crash: %v", step, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitPromotionsQuiet waits until no replica has been promoted for
// 200ms, so the elections a crash started are over.
func awaitPromotionsQuiet(c *Cluster) {
	n := c.StatsTotal().Promotions
	for quiet := time.Now(); time.Since(quiet) < 200*time.Millisecond; time.Sleep(10 * time.Millisecond) {
		if m := c.StatsTotal().Promotions; m != n {
			n, quiet = m, time.Now()
		}
	}
}

// TestRouteCacheFollowsOwnership: a batch reply leaves out the routes the
// handle holds under the owner's current route epoch, so every change to
// what an owner would teach must move its epoch on.  After partitions move
// between vnodes of one snode, a new snode joins, a group splits, the
// primary of every key crashes and its replicas are promoted, and the
// crashed snode restarts, the first batch must leave every cached route
// equal to what its owner holds.
func TestRouteCacheFollowsOwnership(t *testing.T) {
	for _, fab := range []struct {
		name string
		net  func() transport.Network
	}{
		{"mem", func() transport.Network { return transport.NewMem() }},
		{"tcp", func() transport.Network { return transport.NewTCP("127.0.0.1") }},
	} {
		t.Run(fab.name, func(t *testing.T) { runRouteCacheFollowsOwnership(t, fab.net()) })
	}
}

func runRouteCacheFollowsOwnership(t *testing.T, net transport.Network) {
	c, err := New(Config{
		Pmin: 8, Vmin: 2, Seed: 61, Replicas: 2,
		RPCTimeout: 5 * time.Second, AntiEntropyInterval: 25 * time.Millisecond,
		Durability: DurabilityConfig{Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	// Every vnode lives on home: each transfer moves a partition between
	// two vnodes of one snode, and home is the primary of every key.
	home := c.Snodes()[0]
	enroll := func(n int) {
		for i := 0; i < n; i++ {
			if _, _, err := c.CreateVnode(home); err != nil {
				t.Fatal(err)
			}
		}
	}
	enroll(3)
	keys := make([]string, 512)
	items := make([]KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("route-%04d", i)
		items[i] = KV{Key: keys[i], Value: []byte(keys[i])}
	}
	res, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.OK() {
			t.Fatalf("put %q: %s", r.Key, r.Err)
		}
	}
	readAll := func(step string) {
		t.Helper()
		res, err := c.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if !r.OK() || !r.Found || string(r.Value) != r.Key {
				t.Fatalf("%s: read %q: %+v", step, r.Key, r)
			}
		}
	}
	// firstBatch reads every key once the snodes have taken in the change
	// (Ping drains what the handle sent them) and checks the routes.
	firstBatch := func(step string) {
		t.Helper()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		readAll(step)
		checkRoutesFollowOwners(t, c, keys, step)
	}
	firstBatch("warm")

	before := c.StatsTotal()
	enroll(1) // 32 partitions over 4 vnodes: transfers, no split
	if c.StatsTotal().PartitionsSent == before.PartitionsSent {
		t.Fatal("the fourth vnode took no partition")
	}
	firstBatch("partitions moved between vnodes of one snode")

	if _, err := c.AddSnode(); err != nil {
		t.Fatal(err)
	}
	firstBatch("snode added")

	enroll(1) // five vnodes exceed Vmax = 4
	if c.StatsTotal().GroupSplits == before.GroupSplits {
		t.Fatal("the fifth vnode did not split the group")
	}
	firstBatch("group split")

	// Crash the primary of every key: once the promoted replicas have
	// announced themselves, the first read takes no failed round trip.
	waitConverged(t, c)
	c.mu.Lock()
	victim := c.snodes[home]
	c.mu.Unlock()
	victim.mu.Lock()
	oldEpoch := victim.routeEpoch
	victim.mu.Unlock()
	fails := c.subFails.Load()
	if err := c.KillSnode(home); err != nil {
		t.Fatal(err)
	}
	awaitRoutesFollowOwners(t, c, keys, "primary crashed")
	readAll("primary crashed")
	if n := c.subFails.Load() - fails; n != 0 {
		t.Fatalf("the first read after the promotions took %d failed round trips, want 0", n)
	}

	awaitPromotionsQuiet(c)
	if err := c.RestartSnode(home); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	restarted := c.snodes[home]
	c.mu.Unlock()
	restarted.mu.Lock()
	newEpoch := restarted.routeEpoch
	restarted.mu.Unlock()
	if newEpoch <= oldEpoch {
		t.Fatalf("restarted snode is at route epoch %d, not above its previous incarnation's %d", newEpoch, oldEpoch)
	}
	firstBatch("crashed snode restarted")
}

// TestBatchFollowsRedirects: after a join moves partitions away, the
// handle's routes of the moved keys name their old host, which now
// answers each such key with its next custody hop.  An MPut and then an
// MGet of 64 keys, each behind such a join, must land through those
// redirects, leave the handle routing every key to its owner, and raise
// Stats.Forwards by exactly the custody hops the stale routes were
// short of.
func TestBatchFollowsRedirects(t *testing.T) {
	c := newTestCluster(t, 8, 4, 2, 5)
	ids := c.Snodes()
	for i := 0; i < 2; i++ {
		if _, _, err := c.CreateVnode(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 64)
	items := make([]KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("redirect-%d", i)
		items[i] = KV{Key: keys[i], Value: []byte("v0")}
	}
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	checkRoutesFollowOwners(t, c, keys, "warm-up")

	// staleHops counts, over the keys, the custody hops from the host the
	// handle routes each key to on to the key's owner.
	staleHops := func() (hops, stale int) {
		for _, k := range keys {
			h := hashspace.HashString(k)
			c.routeMu.Lock()
			rt, _ := probeLevels(h, c.routes, &c.routeLvls)
			c.routeMu.Unlock()
			at, n := rt.ref.Host, 0
			for ; ; n++ {
				c.mu.Lock()
				s := c.snodes[at]
				c.mu.Unlock()
				s.mu.Lock()
				_, _, owns := s.ownedForLocked(h)
				next, ok := s.forwardTargetLocked(h)
				s.mu.Unlock()
				if owns {
					break
				}
				if !ok || n == maxHops {
					t.Fatalf("no custody chain for %q from snode %d", k, rt.ref.Host)
				}
				at = next.Host
			}
			hops += n
			if n > 0 {
				stale++
			}
		}
		return hops, stale
	}
	for round, op := range []string{"MPut", "MGet"} {
		sn, err := c.AddSnode()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CreateVnode(sn); err != nil {
			t.Fatal(err)
		}
		hops, stale := staleHops()
		if stale == 0 {
			t.Fatalf("%s: the join left no route stale", op)
		}
		fwd := c.StatsTotal().Forwards
		var rs []BatchResult
		if op == "MPut" {
			for i := range items {
				items[i].Value = []byte(fmt.Sprintf("v%d", round+1))
			}
			rs, err = c.MPut(items)
		} else {
			rs, err = c.MGet(keys)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if !r.OK() || (op == "MGet" && string(r.Value) != "v1") {
				t.Fatalf("%s of %q through a stale route: %+v", op, r.Key, r)
			}
		}
		if got := c.StatsTotal().Forwards - fwd; got != int64(hops) {
			t.Errorf("%s: Forwards rose by %d, want the %d hops of %d stale routes", op, got, hops, stale)
		}
		t.Logf("%s: %d of %d routes stale, %d redirects", op, stale, len(keys), hops)
		checkRoutesFollowOwners(t, c, keys, op)
	}
}
