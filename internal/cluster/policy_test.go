package cluster

import (
	"fmt"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
)

// TestCustodyChains: after many migrations, a fresh snode with only the
// bootstrap pointer can still resolve every key by chasing custody chains.
func TestCustodyChains(t *testing.T) {
	c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 7, RPCTimeout: 20 * time.Second}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for v := 0; v < 20; v++ { // many joins ⇒ long custody history
		if _, _, err := c.CreateVnode(ids[v%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := c.Put(fmt.Sprintf("chain:%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// A latecomer snode has no history at all — only the bootstrap pointer.
	late, err := c.AddSnode()
	if err != nil {
		t.Fatal(err)
	}
	_ = late
	for i := 0; i < 100; i++ {
		if _, found, err := c.Get(fmt.Sprintf("chain:%d", i)); err != nil || !found {
			t.Fatalf("get via custody chain: %v %v", err, found)
		}
	}
	// Forwards must have happened (chains were actually chased).
	if c.StatsTotal().Forwards == 0 {
		t.Fatal("expected forwarded lookups")
	}
}

// TestManySnodeLeaves: serial graceful departures down to one node keep
// all data reachable.
func TestManySnodeLeaves(t *testing.T) {
	c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 21, RPCTimeout: 20 * time.Second}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for v := 0; v < 15; v++ {
		if _, _, err := c.CreateVnode(ids[v%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	const keys = 120
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Remove snodes one by one (keep the last two: group dissolution limits
	// apply when vnode counts shrink too far).
	for len(c.Snodes()) > 2 {
		victim := c.Snodes()[0]
		if err := c.RemoveSnode(victim); err != nil {
			t.Fatalf("remove snode %d: %v", victim, err)
		}
		for i := 0; i < keys; i++ {
			v, found, err := c.Get(fmt.Sprintf("k%d", i))
			if err != nil || !found || v[0] != byte(i) {
				t.Fatalf("after removing %d: get k%d = %v %v", victim, i, err, found)
			}
		}
	}
}

// TestEnrollmentProportionalQuota: a node enrolling twice the vnodes holds
// roughly twice the hash range (base-model feature (a) on the runtime).
func TestEnrollmentProportionalQuota(t *testing.T) {
	c, err := New(Config{Pmin: 32, Vmin: 16, Seed: 31, RPCTimeout: 20 * time.Second}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	targets := map[transport.NodeID]int{ids[0]: 8, ids[1]: 4, ids[2]: 2, ids[3]: 2}
	for id, n := range targets {
		if _, err := c.SetEnrollment(id, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	quotas := snap.VnodeQuotas()
	byHost := map[transport.NodeID]float64{}
	for i, v := range snap.Vnodes {
		byHost[v.Host] += quotas[i]
	}
	// 16 vnodes total (power of two, single group) ⇒ exact proportionality.
	for id, n := range targets {
		want := float64(n) / 16
		got := byHost[id]
		if got < want*0.99 || got > want*1.01 {
			t.Fatalf("snode %d quota = %v, want %v", id, got, want)
		}
	}
}
