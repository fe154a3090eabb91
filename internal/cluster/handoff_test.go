package cluster

import (
	"fmt"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
)

// A replica set may change (a new snode moves targets, a split gives the
// children targets of their own) well inside one anti-entropy interval
// before a crash.  These tests crash the largest primary right after such
// a change, at the default 1 s interval, and require that no acknowledged
// write is lost: the hosts holding the whole copies stay in the fan-out
// set until their targets are synced, and the election finds them.

// handOffCluster boots 4 snodes on Mem at R=2 with the default
// anti-entropy interval, grows 8 vnodes and stores 2,000 keys.
func handOffCluster(t *testing.T, seed int64) (*Cluster, map[string][]byte) {
	t.Helper()
	c, err := New(Config{Pmin: 32, Vmin: 8, Seed: seed, Replicas: 2, RPCTimeout: 5 * time.Second}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 8)
	want := ackedPuts(t, c, "handoff", 2000)
	if len(want) != 2000 {
		t.Fatalf("%d of 2000 puts acknowledged", len(want))
	}
	return c, want
}

// crashRightAfter rewrites 100 keys, at once kills the snode owning the
// most keys, and requires every key to read its latest value.
func crashRightAfter(t *testing.T, c *Cluster, want map[string][]byte) {
	t.Helper()
	rewrite := make([]KV, 0, 100)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("handoff-%05d", i*20)
		rewrite = append(rewrite, KV{Key: k, Value: []byte("rewritten-" + k)})
	}
	res, err := c.MPut(rewrite)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("rewrite %q: %s", r.Key, r.Err)
		}
		want[rewrite[i].Key] = rewrite[i].Value
	}

	keys := make([]string, 0, len(want))
	hashes := make([]hashspace.Index, 0, len(want))
	for k := range want {
		keys = append(keys, k)
		hashes = append(hashes, hashspace.HashString(k))
	}
	held := make(map[transport.NodeID]int)
	for _, v := range c.Snapshot().Vnodes {
		for _, p := range v.Partitions {
			for _, h := range hashes {
				if p.Contains(h) {
					held[v.Host]++
				}
			}
		}
	}
	victim := c.Snodes()[0]
	for id, n := range held {
		if n > held[victim] || n == held[victim] && id < victim {
			victim = id
		}
	}
	if err := c.KillSnode(victim); err != nil {
		t.Fatal(err)
	}

	missing, failed := 0, 0
	for _, r := range mgetAcrossPromotion(t, c, keys) {
		switch {
		case !r.OK():
			failed++
		case !r.Found || string(r.Value) != string(want[r.Key]):
			missing++
			if missing <= 3 {
				t.Errorf("key %q after the crash: found=%v value=%q, want %q", r.Key, r.Found, r.Value, want[r.Key])
			}
		}
	}
	if missing > 0 || failed > 0 {
		t.Fatalf("killing snode %d (%d of %d keys): %d keys missing, %d reads failed", victim, held[victim], len(keys), missing, failed)
	}
}

// TestCrashAfterAddSnodeLosesNothing: a new snode takes over some
// partitions' targets; the old targets hold the only copies until
// anti-entropy syncs the new ones.
func TestCrashAfterAddSnodeLosesNothing(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, want := handOffCluster(t, seed)
			waitConverged(t, c)
			if _, err := c.AddSnode(); err != nil {
				t.Fatal(err)
			}
			crashRightAfter(t, c, want)
		})
	}
}

// TestCrashAfterSplitLosesNothing grows the cluster until its group
// splits (§3.7), which splits every partition on the way: the children's
// targets differ from their parent's, whose hosts hold the only copies.
func TestCrashAfterSplitLosesNothing(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, want := handOffCluster(t, seed)
			ids := c.Snodes()
			for i := 0; c.StatsTotal().GroupSplits == 0; i++ {
				if i == 64 {
					t.Fatal("64 more vnodes and the group has not split")
				}
				if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
					t.Fatal(err)
				}
			}
			crashRightAfter(t, c, want)
		})
	}
}

// TestElectionWaitsForEveryAnswer: at R=3 two survivors hold copies of
// the dead primary's partitions, and the link from one to the other drops
// every frame, so neither hears the other's answer.  An election deciding
// on the answers that arrived would promote both copies; each partition
// must be promoted exactly once, after the link heals, with no key lost.
func TestElectionWaitsForEveryAnswer(t *testing.T) {
	net := transport.NewMem()
	faults := transport.NewFaults(1)
	net.SetFaults(faults)
	c, err := New(Config{Pmin: 32, Vmin: 8, Seed: 7, Replicas: 3, RPCTimeout: 300 * time.Millisecond}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 8)
	want := ackedPuts(t, c, "elect", 1000)
	if len(want) != 1000 {
		t.Fatalf("%d of 1000 puts acknowledged", len(want))
	}
	waitConverged(t, c)

	ids := c.Snodes()
	dead, a, b := ids[0], ids[1], ids[2]
	orphaned := 0
	for _, v := range c.Snapshot().Vnodes {
		if v.Host == dead {
			orphaned += len(v.Partitions)
		}
	}
	faults.PartitionOneWay([]transport.NodeID{a}, []transport.NodeID{b})
	if err := c.KillSnode(dead); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)
	faults.Heal()

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for _, r := range mgetAcrossPromotion(t, c, keys) {
		if !r.OK() || !r.Found || string(r.Value) != string(want[r.Key]) {
			t.Fatalf("key %q after the crash: ok=%v found=%v err=%q", r.Key, r.OK(), r.Found, r.Err)
		}
	}
	time.Sleep(200 * time.Millisecond) // let any second promotion land
	if n := c.StatsTotal().Promotions; n != int64(orphaned) {
		t.Errorf("%d promotions for %d orphaned partitions", n, orphaned)
	}
	var owned []hashspace.Partition
	for _, v := range c.Snapshot().Vnodes {
		for _, p := range v.Partitions {
			for _, q := range owned {
				if p.Overlaps(q) {
					t.Errorf("%s and %s are both owned", p.String(), q.String())
				}
			}
			owned = append(owned, p)
		}
	}
}
