package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// checkClusterDigests asserts incremental == recomputed-from-scratch on
// every store the cluster holds right now: primary buckets and replica
// buckets.  It returns how many stores it checked.
func checkClusterDigests(t *testing.T, c *Cluster, step string) int {
	t.Helper()
	var bad []string
	checked := 0
	note := func(s *Snode, kind string, p hashspace.Partition, st *kvStore) {
		checked++
		if msg := digestMismatch(st); msg != "" {
			bad = append(bad, fmt.Sprintf("snode %d %s %v: %s", s.id, kind, p, msg))
		}
	}
	for _, s := range c.liveSnodes() {
		s.mu.Lock()
		for _, vs := range s.vnodes {
			for p, bk := range vs.parts {
				bk.mu.RLock()
				if bk.kv != nil {
					note(s, "primary", p, bk.kv)
				}
				bk.mu.RUnlock()
			}
		}
		for p, b := range s.rparts {
			note(s, "replica", p, b.kv)
		}
		s.mu.Unlock()
	}
	if len(bad) > 0 {
		t.Fatalf("after %s: %d of %d stores out of step with their contents:\n%s", step, len(bad), checked, bad)
	}
	return checked
}

// TestDigestStaysExact drives a replicated, durable cluster through every
// path that mutates a bucket — batch puts, overwrites and deletes, replica
// fan-in, migrations' base copies, deltas and installs (vnode joins and
// leaves), splits, anti-entropy full syncs, snapshot + journal replay
// (crash-restart) and failover promotion — in a seeded random order, and
// checks after every step that each store's maintained digest equals the
// reference digest recomputed from its contents.
func TestDigestStaysExact(t *testing.T) {
	for _, fab := range []struct {
		name  string
		net   func() transport.Network
		steps int
	}{
		{"mem", func() transport.Network { return transport.NewMem() }, 60},
		{"tcp", func() transport.Network { return transport.NewTCP("127.0.0.1") }, 30},
	} {
		t.Run(fab.name, func(t *testing.T) {
			const seed = 20260925
			rng := rand.New(rand.NewSource(seed))
			c, err := New(Config{
				Pmin: 8, Vmin: 2, Seed: seed, Replicas: 2,
				RPCTimeout:          2 * time.Second, // also bounds teardown after the crashes below
				AntiEntropyInterval: 25 * time.Millisecond,
				Durability: DurabilityConfig{
					Dir: t.TempDir(), Fsync: wal.FsyncOff, SnapshotInterval: -1,
				},
			}, fab.net())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			for i := 0; i < 4; i++ {
				if _, err := c.AddSnode(); err != nil {
					t.Fatal(err)
				}
			}
			vnodes := growCluster(t, c, 4)

			key := func() string { return fmt.Sprintf("dk-%03d", rng.Intn(400)) }
			put := func(n int) {
				items := make([]KV, n)
				for i := range items {
					v := make([]byte, rng.Intn(48))
					rng.Read(v)
					items[i] = KV{Key: key(), Value: v}
				}
				if _, err := c.MPut(items); err != nil {
					t.Fatal(err)
				}
			}
			put(300)
			checkClusterDigests(t, c, "preload")

			for step := 0; step < fab.steps; step++ {
				var what string
				switch r := rng.Intn(12); {
				case r < 4:
					what = "put/overwrite"
					put(40)
				case r < 6:
					what = "delete"
					keys := make([]string, 20)
					for i := range keys {
						keys[i] = key()
					}
					if _, err := c.MDelete(keys); err != nil {
						t.Fatal(err)
					}
				case r < 8:
					what = "vnode join (migration syncs, installs, splits)"
					ids := c.Snodes()
					name, _, err := c.CreateVnode(ids[rng.Intn(len(ids))])
					if err != nil {
						t.Logf("step %d: create vnode: %v", step, err)
						break
					}
					vnodes = append(vnodes, name)
				case r < 9:
					what = "vnode leave (ships every partition)"
					if len(vnodes) <= 4 {
						break
					}
					i := rng.Intn(len(vnodes))
					if err := c.RemoveVnode(vnodes[i]); err != nil {
						t.Logf("step %d: remove vnode %v: %v", step, vnodes[i], err)
						break
					}
					vnodes = append(vnodes[:i], vnodes[i+1:]...)
				case r < 10:
					what = "snapshot"
					if err := c.SnapshotNow(); err != nil {
						t.Logf("step %d: snapshot: %v", step, err)
					}
				default:
					what = "anti-entropy pass (probes, full syncs)"
					for _, s := range c.liveSnodes() {
						s.antiEntropyPass()
					}
				}
				checkClusterDigests(t, c, fmt.Sprintf("step %d: %s", step, what))
			}

			// Snapshot + replay: state straddles a snapshot barrier, then one
			// snode crash-restarts and rebuilds every store it holds from
			// snapshot files and journal records.
			if err := c.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			put(100)
			victim := c.Snodes()[1]
			if err := c.KillSnode(victim); err != nil {
				t.Fatal(err)
			}
			if err := c.RestartSnode(victim); err != nil {
				t.Fatal(err)
			}
			if n := checkClusterDigests(t, c, "crash-restart (snapshot load + journal replay)"); n == 0 {
				t.Fatal("no stores checked")
			}

			// Promotion: a primary dies for good and survivors install their
			// replica stores as primary buckets.  The first crash's elections
			// must be over before the count is read, or their promotions pass
			// for this crash's; and the snode to die is the one that is
			// primary for the most partitions (the restarted one aside: the
			// replicas of what it recovered were promoted when it died), so
			// there is something to promote whatever the random steps left
			// where.
			before := c.StatsTotal().Promotions
			for quiet := time.Now(); time.Since(quiet) < 200*time.Millisecond; time.Sleep(10 * time.Millisecond) {
				if n := c.StatsTotal().Promotions; n != before {
					before, quiet = n, time.Now()
				}
			}
			primaries := make(map[transport.NodeID]int)
			for _, v := range c.Snapshot().Vnodes {
				if v.Host != victim {
					primaries[v.Host] += len(v.Partitions)
				}
			}
			doomed := transport.NodeID(0)
			for id, n := range primaries {
				if n > primaries[doomed] || (n == primaries[doomed] && id < doomed) {
					doomed = id
				}
			}
			if err := c.KillSnode(doomed); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(15 * time.Second)
			for c.StatsTotal().Promotions == before {
				if time.Now().After(deadline) {
					t.Fatal("no replica was promoted after the primary crashed")
				}
				time.Sleep(10 * time.Millisecond)
			}
			put(100) // writes land on promoted buckets and their fresh replicas
			checkClusterDigests(t, c, "failover promotion")
		})
	}
}

// aeCounters reads the anti-entropy counters and the number of passes run.
func aeCounters(c *Cluster) (st StatsSnapshot, passes uint64) {
	return c.StatsTotal(), c.Latencies().AntiEntropyPass.Count
}

// waitPasses blocks until every snode's background loop has finished n
// more anti-entropy passes.  With n ≥ 2 that is a barrier: the pass that
// was under way when the wait began — possibly still shipping repairs it
// decided on long ago — is over, and a whole pass has run since.
func waitPasses(t *testing.T, c *Cluster, n uint64) {
	t.Helper()
	snodes := c.liveSnodes()
	start := make([]uint64, len(snodes))
	for i, s := range snodes {
		start[i] = s.lat.aePass.Snapshot().Count
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, s := range snodes {
		for s.lat.aePass.Snapshot().Count < start[i]+n {
			if time.Now().After(deadline) {
				t.Fatalf("snode %d stopped running anti-entropy passes", s.id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestAntiEntropyQuietPassHashesNothing: on an in-sync cluster holding
// data, anti-entropy passes keep running, each sends at most one probe per
// replica host, and none of them hashes a single key or repairs anything.
func TestAntiEntropyQuietPassHashesNothing(t *testing.T) {
	const snodes = 4
	c := newReplicatedCluster(t, transport.NewMem(), snodes, 2, 41)
	growCluster(t, c, 8)
	_, items := batchKeys(2000)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	waitPasses(t, c, 2) // repairs decided before convergence have all been shipped
	st0, passes0 := aeCounters(c)
	waitPasses(t, c, 5)
	st1, passes1 := aeCounters(c)
	if d := st1.AEKeysHashed - st0.AEKeysHashed; d != 0 {
		t.Fatalf("quiet passes hashed %d keys, want 0", d)
	}
	if d := st1.ReplRepairs - st0.ReplRepairs; d != 0 {
		t.Fatalf("quiet passes repaired %d buckets, want 0", d)
	}
	probes := st1.AEProbeMsgs - st0.AEProbeMsgs
	if probes == 0 {
		t.Fatal("no probe was sent: anti-entropy is not checking anything")
	}
	// A pass may straddle either reading, hence the one-pass-per-snode slack.
	if max := int64(passes1-passes0+snodes) * (snodes - 1); probes > max {
		t.Fatalf("%d probes over %d passes: more than one per replica host per pass (max %d)",
			probes, passes1-passes0, max)
	}
	checkClusterDigests(t, c, "quiet passes")
}

// TestAntiEntropyRepairsExactlyTheDivergedPartition: make one replica
// bucket differ from its primary without the primary knowing (a write
// applied to the replica's store directly, standing in for a missed or
// misapplied fan-out) and expect the next passes to ship exactly that one
// partition — one repair, that bucket's keys re-hashed, nothing else.
func TestAntiEntropyRepairsExactlyTheDivergedPartition(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 4, 2, 43)
	growCluster(t, c, 8)
	_, items := batchKeys(2000)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	waitPasses(t, c, 2)

	// Pick the fullest replica bucket anywhere and corrupt one value in it.
	var (
		host *Snode
		part hashspace.Partition
		key  string
		size int
	)
	for _, s := range c.liveSnodes() {
		s.mu.Lock()
		for p, b := range s.rparts {
			if b.kv.len() > size {
				host, part, size = s, p, b.kv.len()
			}
		}
		s.mu.Unlock()
	}
	if size == 0 {
		t.Fatal("no replica bucket holds data")
	}
	st0, _ := aeCounters(c)
	host.mu.Lock()
	keys := make([]string, 0, size)
	for k := range host.rparts[part].kv.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	key = keys[0]
	want := append([]byte(nil), host.rparts[part].kv.m[key]...)
	host.rparts[part].kv.put(key, []byte("diverged"))
	host.mu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for !replicasConverged(c) {
		if time.Now().After(deadline) {
			t.Fatal("diverged replica was not repaired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitPasses(t, c, 2) // and the passes after the repair are quiet again
	st1, _ := aeCounters(c)
	if d := st1.ReplRepairs - st0.ReplRepairs; d != 1 {
		t.Fatalf("%d repairs for one diverged partition, want exactly 1", d)
	}
	if d := st1.AEKeysHashed - st0.AEKeysHashed; d != int64(size) {
		t.Fatalf("repair re-hashed %d keys, want the bucket's %d", d, size)
	}
	host.mu.Lock()
	got := append([]byte(nil), host.rparts[part].kv.m[key]...)
	host.mu.Unlock()
	if string(got) != string(want) {
		t.Fatalf("replica value after repair = %q, want %q", got, want)
	}
	checkClusterDigests(t, c, "repair")
}

// referenceReplicaHosts is the placement rule spelt out: the other hosts
// above primary in ascending order, then those below it, the first R−1 of
// them.  replicaHostsFor must pick the same hosts in the same order.
func referenceReplicaHosts(primary transport.NodeID, view []transport.NodeID, r int) []transport.NodeID {
	var above, below []transport.NodeID
	for _, id := range view {
		switch {
		case id > primary:
			above = append(above, id)
		case id < primary:
			below = append(below, id)
		}
	}
	cands := append(above, below...)
	if r < 1 {
		r = 1
	}
	if len(cands) > r-1 {
		cands = cands[:r-1]
	}
	return cands
}

func TestReplicaHostsMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12)
		view := make([]transport.NodeID, 0, n)
		for id := 1; len(view) < n; id += 1 + rng.Intn(3) {
			view = append(view, transport.NodeID(id))
		}
		primary := transport.NodeID(1 + rng.Intn(20)) // often absent from the view
		r := rng.Intn(12)                             // 0 and 1 mean "no replicas"; > len(view) means "all of them"
		got, want := replicaHostsFor(primary, view, r), referenceReplicaHosts(primary, view, r)
		if len(got) != len(want) {
			t.Fatalf("trial %d: view %v primary %d r %d: got %v want %v", trial, view, primary, r, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: view %v primary %d r %d: got %v want %v", trial, view, primary, r, got, want)
			}
		}
		if len(want) == 0 && got != nil {
			t.Fatalf("trial %d: empty placement must be nil, got %v", trial, got)
		}
	}
}

// TestPlacementCacheFollowsView: the per-bucket placement cache must never
// outlive the view it was computed for.
func TestPlacementCacheFollowsView(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 3, 2, 47)
	growCluster(t, c, 6)
	_, items := batchKeys(200)
	if _, err := c.MPut(items); err != nil { // fills the caches on the batch path
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for _, s := range c.liveSnodes() {
			s.mu.Lock()
			for p := range s.owned {
				got := s.fanoutLocked(p)[:len(s.targets)]
				want := replicaHostsFor(s.id, s.view, s.cfg.Replicas)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					s.mu.Unlock()
					t.Fatalf("%s: snode %d partition %v: cached placement %v, view says %v", when, s.id, p, got, want)
				}
			}
			s.mu.Unlock()
		}
	}
	check("before the membership change")
	if _, err := c.AddSnode(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // the view broadcast has been delivered
		t.Fatal(err)
	}
	check("after a snode joined")
	if err := c.KillSnode(c.Snodes()[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	check("after a snode crashed")
}
