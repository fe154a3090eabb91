package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// newReplicatedCluster boots a cluster with R-way replication and a fast
// anti-entropy cadence suited to tests.
func newReplicatedCluster(t *testing.T, net transport.Network, snodes, r int, seed int64) *Cluster {
	t.Helper()
	// RPCTimeout is deliberately short: an envelope in flight to an snode
	// at the instant it crashes is dropped, and the sender should give up
	// (and fail over) quickly.
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: seed, RPCTimeout: 5 * time.Second,
		Replicas: r, AntiEntropyInterval: 25 * time.Millisecond,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestReplicaPlacement(t *testing.T) {
	view := []transport.NodeID{1, 2, 3, 4}
	hosts := replicaHostsFor(2, view, 3)
	if len(hosts) != 2 {
		t.Fatalf("R=3 placement over 4 snodes = %v, want 2 hosts", hosts)
	}
	seen := map[transport.NodeID]bool{}
	for _, h := range hosts {
		if h == 2 {
			t.Fatalf("placement %v includes the primary", hosts)
		}
		if seen[h] {
			t.Fatalf("placement %v repeats a host", hosts)
		}
		seen[h] = true
	}
	// Deterministic: same inputs, same placement.
	again := replicaHostsFor(2, view, 3)
	for i := range hosts {
		if hosts[i] != again[i] {
			t.Fatalf("placement not deterministic: %v vs %v", hosts, again)
		}
	}
	// Degraded modes: more replicas than candidates, no candidates, R=1.
	if got := replicaHostsFor(2, view, 16); len(got) != 3 {
		t.Fatalf("oversized R should use every other host, got %v", got)
	}
	if got := replicaHostsFor(7, []transport.NodeID{7}, 2); got != nil {
		t.Fatalf("single-snode view must place no replicas, got %v", got)
	}
	if got := replicaHostsFor(2, view, 1); got != nil {
		t.Fatalf("R=1 must place no replicas, got %v", got)
	}
}

// randomView is a sorted view of n hosts with gaps between their ids, so
// a primary drawn from [1, 3n+2] is sometimes absent from it.
func randomView(rng *rand.Rand, n int) []transport.NodeID {
	view := make([]transport.NodeID, 0, n)
	for id := 1 + rng.Intn(3); len(view) < n; id += 1 + rng.Intn(3) {
		view = append(view, transport.NodeID(id))
	}
	return view
}

// TestReplicaPlacementRingSuccessors pins the properties ring-successor
// placement exists for: every host backs exactly R−1 primaries, one
// membership change touches only the sets next to it on the ring, and at
// R=2 only n of the n(n−1)/2 host pairs share a copyset.
func TestReplicaPlacementRingSuccessors(t *testing.T) {
	// Balance: each host is the target of exactly min(R−1, n−1) primaries.
	for n := 0; n <= 12; n++ {
		view := make([]transport.NodeID, n)
		for i := range view {
			view[i] = transport.NodeID(2*i + 1)
		}
		for r := 0; r <= n+2; r++ {
			backs := make(map[transport.NodeID]int)
			for _, primary := range view {
				for _, h := range replicaHostsFor(primary, view, r) {
					backs[h]++
				}
			}
			for _, h := range view {
				if want := max(0, min(r-1, n-1)); backs[h] != want {
					t.Fatalf("n=%d r=%d: host %d backs %d primaries, want %d", n, r, h, backs[h], want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	sets := func(view []transport.NodeID, r int) map[transport.NodeID][]transport.NodeID {
		out := make(map[transport.NodeID][]transport.NodeID, len(view))
		for _, primary := range view {
			out[primary] = replicaHostsFor(primary, view, r)
		}
		return out
	}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(13)
		view := randomView(rng, n)
		r := rng.Intn(n + 3)
		base := sets(view, r)

		// Adding a host changes only its own set and those of its R−1
		// ring predecessors.
		var added transport.NodeID
		for added == 0 || slices.Contains(view, added) {
			added = transport.NodeID(1 + rng.Intn(3*n+3))
		}
		grown := slices.Sorted(slices.Values(append(slices.Clone(view), added)))
		at := slices.Index(grown, added)
		var preds []transport.NodeID
		for k := 1; k <= min(r-1, len(grown)-1); k++ {
			preds = append(preds, grown[(at-k+len(grown))%len(grown)])
		}
		for primary, hosts := range sets(grown, r) {
			if primary != added && !slices.Equal(hosts, base[primary]) && !slices.Contains(preds, primary) {
				t.Fatalf("trial %d: view %v r %d: adding %d moved %d's set %v to %v, though only %v precede it",
					trial, view, r, added, primary, base[primary], hosts, preds)
			}
		}

		// Removing a host changes only the sets that contained it.
		if n == 0 {
			continue
		}
		removed := view[rng.Intn(n)]
		shrunk := slices.DeleteFunc(slices.Clone(view), func(h transport.NodeID) bool { return h == removed })
		for primary, hosts := range sets(shrunk, r) {
			if !slices.Equal(hosts, base[primary]) && !slices.Contains(base[primary], removed) {
				t.Fatalf("trial %d: view %v r %d: removing %d moved %d's set %v to %v",
					trial, view, r, removed, primary, base[primary], hosts)
			}
		}
	}

	// Copysets at R=2: a pair of crashed hosts loses data only when it is
	// a primary and its successor — n pairs of n(n−1)/2.
	for n := 3; n <= 12; n++ {
		view := randomView(rng, n)
		pairs := make(map[[2]transport.NodeID]bool)
		for i, primary := range view {
			hosts := replicaHostsFor(primary, view, 2)
			if len(hosts) != 1 || hosts[0] != view[(i+1)%n] {
				t.Fatalf("view %v: %d's target is %v, want its successor %d", view, primary, hosts, view[(i+1)%n])
			}
			pairs[[2]transport.NodeID{min(primary, hosts[0]), max(primary, hosts[0])}] = true
		}
		if len(pairs) != n {
			t.Fatalf("view %v: %d copysets, want %d of %d pairs", view, len(pairs), n, n*(n-1)/2)
		}
	}
}

// replicasConverged reports whether every owned, unfrozen partition has
// digest-matching buckets at each of its placed replica hosts.
func replicasConverged(c *Cluster) bool {
	c.mu.Lock()
	byID := make(map[transport.NodeID]*Snode, len(c.snodes))
	snodes := make([]*Snode, 0, len(c.snodes))
	for _, id := range c.order {
		byID[id] = c.snodes[id]
		snodes = append(snodes, c.snodes[id])
	}
	c.mu.Unlock()
	type want struct {
		p     hashspace.Partition
		host  transport.NodeID
		count int
		sum   uint64
	}
	var wants []want
	for _, s := range snodes {
		s.mu.Lock()
		for _, vs := range s.vnodes {
			if !vs.joined {
				continue
			}
			for p, b := range vs.parts {
				b.mu.RLock()
				if b.state != bucketLive {
					b.mu.RUnlock()
					continue
				}
				n, sum := bucketDigest(b.kv.m)
				b.mu.RUnlock()
				for _, host := range s.targets {
					wants = append(wants, want{p, host, n, sum})
				}
			}
		}
		s.mu.Unlock()
	}
	for _, w := range wants {
		r, ok := byID[w.host]
		if !ok {
			return false
		}
		r.mu.Lock()
		b, ok := r.rparts[w.p]
		var n int
		var sum uint64
		if ok {
			n, sum = bucketDigest(b.kv.m)
		}
		r.mu.Unlock()
		if !ok || n != w.count || sum != w.sum {
			return false
		}
	}
	return true
}

func waitConverged(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !replicasConverged(c) {
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge with their primaries")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicatedRoundTrip checks the R=2 write path end to end: puts and
// deletes reach the replica buckets, and the replica set converges with
// the primaries' digests.
func TestReplicatedRoundTrip(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 4, 2, 31)
	growCluster(t, c, 12)
	keys, items := batchKeys(256)
	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("MPut %q: %s", r.Key, r.Err)
		}
	}
	if _, err := c.MDelete(keys[:64]); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	st := c.StatsTotal()
	if st.ReplWrites == 0 {
		t.Fatal("replicated writes left ReplWrites at zero")
	}
	// The deleted keys are gone from the replicas too: kill any snode and
	// read once its replicas are promoted.
	victim := c.Snodes()[2]
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}
	results = mgetAcrossPromotion(t, c, keys)
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("MGet %q after crash: %s", r.Key, r.Err)
		}
		if i < 64 && r.Found {
			t.Fatalf("deleted key %q resurrected after crash", r.Key)
		}
		if i >= 64 && !r.Found {
			t.Fatalf("acknowledged key %q lost after crash", r.Key)
		}
	}
}

// mgetAcrossPromotion reads keys right after a crash.  A read of a dead
// primary's partition fails until a replica is promoted and announced, so
// the keys whose read failed are read again, for at most 5 s; an answered
// read is final.
func mgetAcrossPromotion(t *testing.T, c *Cluster, keys []string) []BatchResult {
	t.Helper()
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		var again []int
		for i, r := range res {
			if !r.OK() {
				again = append(again, i)
			}
		}
		if len(again) == 0 {
			break
		}
		retry := make([]string, len(again))
		for j, i := range again {
			retry[j] = keys[i]
		}
		rs, err := c.MGet(retry)
		if err != nil {
			t.Fatal(err)
		}
		for j, i := range again {
			res[i] = rs[j]
		}
	}
	return res
}

// runCrashWorkload drives the acceptance scenario on any fabric: with
// R=2, write under load, kill one snode mid-workload, and require every
// acknowledged key to still be readable.
func runCrashWorkload(t *testing.T, c *Cluster, vnodes, preload int) {
	growCluster(t, c, vnodes)
	keys, items := batchKeys(preload)
	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]string) // key → expected value
	var ackedMu sync.Mutex
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("preload MPut %q: %s", r.Key, r.Err)
		}
		acked[keys[i]] = string(items[i].Value)
	}

	// Writer goroutine: keeps batching new keys while the crash happens;
	// only acknowledged results count.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]KV, 32)
			for j := range batch {
				k := fmt.Sprintf("live-%04d-%02d", round, j)
				batch[j] = KV{Key: k, Value: []byte("v-" + k)}
			}
			res, err := c.MPut(batch)
			if err != nil {
				continue // cluster-level hiccup: nothing acknowledged
			}
			ackedMu.Lock()
			for _, r := range res {
				if r.OK() {
					acked[r.Key] = "v-" + r.Key
				}
			}
			ackedMu.Unlock()
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the writer overlap the crash
	victim := c.Snodes()[1]
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // keep writing into the degraded cluster
	close(stop)
	wg.Wait()

	ackedKeys := make([]string, 0, len(acked))
	for k := range acked {
		ackedKeys = append(ackedKeys, k)
	}
	res := mgetAcrossPromotion(t, c, ackedKeys)
	lost := 0
	for _, r := range res {
		if !r.OK() || !r.Found || string(r.Value) != acked[r.Key] {
			lost++
			if lost <= 5 {
				t.Errorf("acknowledged key %q unreadable after crash: %+v", r.Key, r)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("lost %d of %d acknowledged keys after killing snode %d", lost, len(ackedKeys), victim)
	}
	// The crash must have exercised the failover machinery: the surviving
	// replica set promoted new primaries, which serve the reads.
	if st := c.StatsTotal(); st.Promotions == 0 {
		t.Fatal("no promotions — the crash scenario did not exercise failover")
	}
}

func TestCrashFailoverMem(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 6, 2, 32)
	runCrashWorkload(t, c, 16, 512)
}

func TestCrashFailoverTCP(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewTCP("127.0.0.1"), 4, 2, 33)
	runCrashWorkload(t, c, 8, 128)
}

// TestCrashFailoverTCPThreeCopies: at R=3 two copies survive each dead
// primary, so the election is a real exchange over real sockets — each
// holder queries every live snode (promoteQueryReq/Resp) and only the
// best copy promotes itself.
func TestCrashFailoverTCPThreeCopies(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewTCP("127.0.0.1"), 5, 3, 35)
	runCrashWorkload(t, c, 10, 128)
	waitConverged(t, c)
	st := c.StatsTotal()
	if st.Elections == 0 || st.Promotions == 0 {
		t.Fatalf("elections = %d, promotions = %d; the R=3 crash ran no election", st.Elections, st.Promotions)
	}
	// A duplicate self-promotion — a copy whose holder already owns the
	// partition — is a no-op.
	owner := c.Snapshot().Vnodes[0]
	c.mu.Lock()
	s := c.snodes[owner.Host]
	c.mu.Unlock()
	if err := s.promotePartition(owner.Partitions[0], -2, nil); err != nil {
		t.Fatalf("duplicate promotion: %v", err)
	}
	if got := c.StatsTotal().Promotions; got != st.Promotions {
		t.Fatalf("duplicate promotion counted: promotions %d → %d", st.Promotions, got)
	}
}

// TestAntiEntropyRehomesAfterCrash kills a replica-holding snode and
// expects failover promotion plus the background anti-entropy pass to
// restore full coverage at R copies on the shrunken view, so a *second*
// crash (of a primary) still loses no key.
func TestAntiEntropyRehomesAfterCrash(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 5, 2, 34)
	growCluster(t, c, 12)
	keys, items := batchKeys(300)
	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("MPut %q: %s", r.Key, r.Err)
		}
	}
	waitConverged(t, c)
	if err := c.KillSnode(c.Snodes()[3]); err != nil {
		t.Fatal(err)
	}
	// Failover promotion re-owns the victim's partitions at surviving
	// replicas, and the survivors converge on the new placement: every
	// partition is back under a live primary with a fresh replica.
	allOwned := func() bool {
		snap := c.Snapshot()
		for _, k := range keys {
			h := hashspace.HashString(k)
			owned := false
			for _, v := range snap.Vnodes {
				for _, p := range v.Partitions {
					if p.Contains(h) {
						owned = true
					}
				}
			}
			if !owned {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !allOwned() {
		if time.Now().After(deadline) {
			t.Fatal("failover promotion did not restore primary coverage")
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitConverged(t, c)
	st := c.StatsTotal()
	if st.ReplRepairs == 0 {
		t.Fatal("anti-entropy repaired nothing after a replica host crashed")
	}
	if st.Promotions == 0 {
		t.Fatal("no replica was promoted after the primary crashed")
	}
	// Second crash, this time losing the promoted primaries too: every key
	// must stay readable from the next round of promotions, which promote
	// the re-homed replicas.
	if err := c.KillSnode(c.Snodes()[1]); err != nil {
		t.Fatal(err)
	}
	res := mgetAcrossPromotion(t, c, keys)
	for i, r := range res {
		if !r.OK() || !r.Found {
			t.Fatalf("MGet %q after second crash = %+v", keys[i], r)
		}
	}
}

// TestAntiEntropyDropsOrphanedReplicas grows the cluster (a vnode join
// moves partitions, and their copies follow the new primary) and expects
// the hand-off to discard the stranded copies: after convergence every
// replica bucket is a live partition at one of its targets.
func TestAntiEntropyDropsOrphanedReplicas(t *testing.T) {
	c := newReplicatedCluster(t, transport.NewMem(), 3, 2, 37)
	growCluster(t, c, 8)
	_, items := batchKeys(200)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c)
	if _, err := c.AddSnode(); err != nil {
		t.Fatal(err)
	}
	noOrphans := func() bool {
		c.mu.Lock()
		snodes := make([]*Snode, 0, len(c.snodes))
		for _, id := range c.order {
			snodes = append(snodes, c.snodes[id])
		}
		c.mu.Unlock()
		expected := make(map[transport.NodeID]map[hashspace.Partition]bool)
		live := make(map[hashspace.Partition]bool)
		for _, s := range snodes {
			s.mu.Lock()
			for _, vs := range s.vnodes {
				if !vs.joined {
					continue
				}
				for p := range vs.parts {
					live[p] = true
					for _, host := range s.targets {
						if expected[host] == nil {
							expected[host] = make(map[hashspace.Partition]bool)
						}
						expected[host][p] = true
					}
				}
			}
			s.mu.Unlock()
		}
		for _, s := range snodes {
			held := s.replicaPartitions()
			for _, p := range held {
				if !live[p] || !expected[s.id][p] {
					return false // a copy of no live partition, or outside its placement
				}
			}
		}
		return true
	}
	deadline := time.Now().Add(15 * time.Second)
	for !noOrphans() || !replicasConverged(c) {
		if time.Now().After(deadline) {
			c.mu.Lock()
			for id, s := range c.snodes {
				t.Logf("snode %d replica partitions: %v", id, s.replicaPartitions())
			}
			c.mu.Unlock()
			t.Fatal("orphaned replica buckets were not dropped after the membership change")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchFrozenPartitionDeadline is the regression test for the frozen
// retry loop: a partition stuck mid-transfer must fail batch writes with
// a per-key error once FreezeTimeout passes, not spin forever.
func TestBatchFrozenPartitionDeadline(t *testing.T) {
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 35, RPCTimeout: 20 * time.Second,
		FreezeTimeout: 100 * time.Millisecond,
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
	growCluster(t, c, 8)
	const key = "freeze-me"
	if err := c.Put(key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	// Wedge the owning partition as a stuck transfer would.
	freeze := func(on bool) {
		h := hashspace.HashString(key)
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, s := range c.snodes {
			s.mu.Lock()
			if vs, p, ok := s.ownsLocked(h); ok {
				if on {
					vs.parts[p].setState(bucketFrozen)
				} else {
					vs.parts[p].setState(bucketLive)
				}
			}
			s.mu.Unlock()
		}
	}
	freeze(true)
	start := time.Now()
	results, err := c.MPut([]KV{{Key: key, Value: []byte("v1")}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].OK() || !strings.Contains(results[0].Err, "frozen") {
		t.Fatalf("write to frozen partition = %+v, want a frozen per-key error", results[0])
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond || elapsed > 10*time.Second {
		t.Fatalf("frozen write surfaced after %v, want ≈FreezeTimeout", elapsed)
	}
	// Reads are never blocked by a freeze, and the value is untouched.
	if res, err := c.MGet([]string{key}); err != nil || !res[0].OK() || string(res[0].Value) != "v0" {
		t.Fatalf("MGet during freeze = %+v, %v", res, err)
	}
	freeze(false)
	results, err = c.MPut([]KV{{Key: key, Value: []byte("v2")}})
	if err != nil || !results[0].OK() {
		t.Fatalf("MPut after thaw = %+v, %v", results, err)
	}
}

// TestMBatchRetriesStaleRoutes is the regression test for stale owner
// routes: a sub-batch aimed at a cached owner that left the cluster must
// be re-resolved through an entry snode, succeed without per-key errors,
// and have the owners' answers replace the stale routes.
func TestMBatchRetriesStaleRoutes(t *testing.T) {
	c := newTestCluster(t, 32, 8, 4, 36)
	growCluster(t, c, 16)
	keys, items := batchKeys(128)
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MGet(keys); err != nil { // warm the route cache
		t.Fatal(err)
	}
	victim := c.Snodes()[1]
	// Snapshot the routes aimed at the victim, then remove it gracefully
	// (which migrates its data and drops those routes) and re-inject the
	// now-stale entries, simulating a handle that raced the departure.
	c.routeMu.Lock()
	var stale []routeEntry
	for p, rt := range c.routes {
		if rt.ref.Host == victim {
			stale = append(stale, routeEntry{Partition: p, Ref: rt.ref})
		}
	}
	c.routeMu.Unlock()
	if len(stale) == 0 {
		t.Fatal("test setup: no cached routes point at the victim")
	}
	if err := c.RemoveSnode(victim); err != nil {
		t.Fatal(err)
	}
	c.learnRoutes(stale)
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() || !r.Found || string(r.Value) != fmt.Sprintf("batch-val-%04d", i) {
			t.Fatalf("MGet %q through stale route = %+v", keys[i], r)
		}
	}
	// The stale routes were replaced, not just worked around.
	c.routeMu.Lock()
	for p, rt := range c.routes {
		if rt.ref.Host == victim {
			t.Errorf("route %v still aims at removed snode %d", p, victim)
		}
	}
	c.routeMu.Unlock()
}

// replicaPartitions lists the partitions s currently backs as a replica,
// sorted.
func (s *Snode) replicaPartitions() []hashspace.Partition {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]hashspace.Partition, 0, len(s.rparts))
	for p := range s.rparts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		return out[i].Prefix < out[j].Prefix
	})
	return out
}

// TestBatchReplicaFanoutCounts pins the replica fan-out as message
// counts.  At R=2 over 4 snodes, with routes warm and no background
// traffic, a 64-key batch that reaches all four primaries costs 12
// snode-received messages: 4 batches, 4 replica writes (one per primary,
// to its ring successor) and their 4 acks.  A quiet anti-entropy pass
// sends exactly R−1 probes per snode.
func TestBatchReplicaFanoutCounts(t *testing.T) {
	const snodes, r = 4, 2
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 59, Replicas: r,
		AntiEntropyInterval: time.Hour, // passes run only when called below
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 16)
	_, items := batchKeys(64)
	ss := c.liveSnodes()
	primaries := make(map[transport.NodeID]bool)
	for _, it := range items {
		h := hashspace.HashString(it.Key)
		for _, s := range ss {
			s.mu.Lock()
			if _, _, ok := s.ownedForLocked(h); ok {
				primaries[s.id] = true
			}
			s.mu.Unlock()
		}
	}
	if len(primaries) != snodes {
		t.Fatalf("the batch reaches %d primaries, want all %d", len(primaries), snodes)
	}
	// Warm the routes and seed every copy, then settle the hand-offs the
	// vnode joins left, so each partition's fan-out set is its target.
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		for _, s := range ss {
			s.antiEntropyPass()
		}
	}
	if err := c.Ping(); err != nil { // drops and syncs in flight have landed
		t.Fatal(err)
	}

	msgsIn := func() (n int64) {
		for _, s := range ss {
			n += s.stats.MsgsIn.Load()
		}
		return n
	}
	before := msgsIn()
	res, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res {
		if !br.OK() {
			t.Fatalf("MPut %q: %s", br.Key, br.Err)
		}
	}
	if d := msgsIn() - before; d != 3*snodes {
		t.Fatalf("a 64-key batch over %d primaries made the snodes receive %d messages, want %d: a batch, a replica write and an ack per primary",
			snodes, d, 3*snodes)
	}

	for _, s := range ss {
		p0 := s.stats.AEProbeMsgs.Load()
		s.antiEntropyPass()
		if d := s.stats.AEProbeMsgs.Load() - p0; d != r-1 {
			t.Fatalf("snode %d: a quiet anti-entropy pass sent %d probes, want R−1 = %d", s.id, d, r-1)
		}
	}
}
