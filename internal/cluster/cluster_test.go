package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dbdht/internal/balance"
	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
)

func newTestCluster(t *testing.T, pmin, vmin, snodes int, seed int64) *Cluster {
	t.Helper()
	c, err := New(Config{Pmin: pmin, Vmin: vmin, Seed: seed, RPCTimeout: 20 * time.Second}, transport.NewMem())
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

// growCluster creates n vnodes round-robin across the snodes.
func growCluster(t *testing.T, c *Cluster, n int) []VnodeName {
	t.Helper()
	ids := c.Snodes()
	var names []VnodeName
	for i := 0; i < n; i++ {
		name, _, err := c.CreateVnode(ids[i%len(ids)])
		if err != nil {
			t.Fatalf("create vnode %d: %v", i, err)
		}
		names = append(names, name)
	}
	return names
}

// verifySnapshot checks the cluster-wide invariants on a quiescent cluster:
// the materialized partitions tile R_h (G1′/L1), every group's vnodes share
// one splitlevel (G3′), group sizes respect L2's upper bound, LPDR
// replicas agree with materialized partition counts, and every leader's
// LPDR member holds at least Pmin partitions (G4′'s floor; the live leader
// does not merge, so the upper bound is soft).
func verifySnapshot(t *testing.T, c *Cluster) Snapshot {
	t.Helper()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	all := hashspace.NewSet()
	groupLevels := make(map[core.GroupID]uint8)
	groupSizes := make(map[core.GroupID]int)
	counts := make(map[VnodeName]int)
	for _, v := range snap.Vnodes {
		for _, p := range v.Partitions {
			if err := all.Add(p); err != nil {
				t.Fatalf("overlap: %v", err)
			}
		}
		if lvl, seen := groupLevels[v.Group]; seen && lvl != v.Level {
			t.Fatalf("group %v has mixed levels %d and %d", v.Group, lvl, v.Level)
		}
		groupLevels[v.Group] = v.Level
		groupSizes[v.Group]++
		counts[v.Name] = len(v.Partitions)
	}
	if len(snap.Vnodes) > 0 && !all.Covers() {
		t.Fatal("materialized partitions do not tile R_h")
	}
	vmax := 2 * c.cfg.Vmin
	for g, n := range groupSizes {
		if n < 1 || n > vmax {
			t.Fatalf("group %v has %d vnodes (Vmax=%d)", g, n, vmax)
		}
	}
	// Leader LPDRs must match materialized state.
	for host, reps := range snap.Replicas {
		for _, rep := range reps {
			if snap.Leaders[rep.Group] != host {
				continue
			}
			lpdr := balance.NewTable[VnodeName](func(a, b VnodeName) bool { return a.Less(b) })
			for _, m := range rep.Members {
				if got := counts[m.Vnode]; got != m.Count {
					t.Fatalf("leader LPDR of %v says %v has %d partitions, materialized %d", rep.Group, m.Vnode, m.Count, got)
				}
				if err := lpdr.Add(m.Vnode); err != nil {
					t.Fatalf("leader LPDR of %v: %v", rep.Group, err)
				}
				if err := lpdr.SetCount(m.Vnode, m.Count); err != nil {
					t.Fatalf("leader LPDR of %v: %v", rep.Group, err)
				}
			}
			if err := lpdr.CheckBounds(c.cfg.Pmin, math.MaxInt); err != nil {
				t.Fatalf("leader LPDR of %v: G4′ violated: %v", rep.Group, err)
			}
		}
	}
	return snap
}

func TestBootstrapSingleVnode(t *testing.T) {
	c := newTestCluster(t, 8, 4, 1, 1)
	name, gid, err := c.CreateVnode(c.Snodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if gid != (core.GroupID{}) {
		t.Fatalf("first group = %v", gid)
	}
	if name.String() != "1.0" {
		t.Fatalf("canonical name = %q", name)
	}
	snap := verifySnapshot(t, c)
	if len(snap.Vnodes) != 1 || len(snap.Vnodes[0].Partitions) != 8 {
		t.Fatalf("bootstrap state: %+v", snap.Vnodes)
	}
}

func TestGrowthSingleSnode(t *testing.T) {
	c := newTestCluster(t, 8, 4, 1, 2)
	growCluster(t, c, 12)
	snap := verifySnapshot(t, c)
	if len(snap.Vnodes) != 12 {
		t.Fatalf("vnodes = %d", len(snap.Vnodes))
	}
	// 12 vnodes with Vmax=8 means at least one group split happened.
	if c.StatsTotal().GroupSplits == 0 {
		t.Fatal("expected a group split")
	}
}

func TestGrowthManySnodes(t *testing.T) {
	c := newTestCluster(t, 8, 4, 8, 3)
	growCluster(t, c, 64)
	snap := verifySnapshot(t, c)
	if len(snap.Vnodes) != 64 {
		t.Fatalf("vnodes = %d", len(snap.Vnodes))
	}
	// Quotas sum to 1.
	sum := 0.0
	for _, q := range snap.VnodeQuotas() {
		sum += q
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("quotas sum to %v", sum)
	}
}

func TestPutGetDelete(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 4)
	growCluster(t, c, 8)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := c.Put(key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, found, err := c.Get(key)
		if err != nil || !found {
			t.Fatalf("get %s: %v found=%v", key, err, found)
		}
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %s = %q", key, v)
		}
	}
	if _, found, err := c.Get("absent"); err != nil || found {
		t.Fatalf("absent key: %v %v", err, found)
	}
	if found, err := c.Delete("key-7"); err != nil || !found {
		t.Fatalf("delete: %v %v", err, found)
	}
	if _, found, _ := c.Get("key-7"); found {
		t.Fatal("key-7 still present after delete")
	}
	if found, _ := c.Delete("key-7"); found {
		t.Fatal("double delete must report not found")
	}
}

func TestDataSurvivesRebalancing(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 5)
	growCluster(t, c, 2)
	const keys = 500
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	// Grow aggressively: splits, transfers and group splits all move data.
	growCluster(t, c, 30)
	snap := verifySnapshot(t, c)
	total := 0
	for _, v := range snap.Vnodes {
		total += v.Keys
	}
	if total != keys {
		t.Fatalf("key count after rebalancing = %d, want %d", total, keys)
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%d", i)
		v, found, err := c.Get(key)
		if err != nil || !found {
			t.Fatalf("get %s after rebalance: %v found=%v", key, err, found)
		}
		if v[0] != byte(i) || v[1] != byte(i>>8) {
			t.Fatalf("get %s corrupted", key)
		}
	}
}

func TestConcurrentJoinsAcrossGroups(t *testing.T) {
	c := newTestCluster(t, 8, 4, 8, 6)
	growCluster(t, c, 32) // several groups exist now
	ids := c.Snodes()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := verifySnapshot(t, c)
	if len(snap.Vnodes) != 96 {
		t.Fatalf("vnodes = %d, want 96", len(snap.Vnodes))
	}
}

// groupWorkers counts the goroutines running a led group's worker.
func groupWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "(*Snode).groupWorker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// awaitGroupWorkers waits up to five seconds for the worker count to
// reach want, and returns the last count seen.
func awaitGroupWorkers(want int) int {
	n := groupWorkers()
	for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = groupWorkers() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestSplitRetiresGroupWorker: a group that splits is dissolved at its
// leader, and its worker exits once the queue drains, so the live workers
// are exactly one per led group; after Close none is left.
func TestSplitRetiresGroupWorker(t *testing.T) {
	before := awaitGroupWorkers(0)
	c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 3, RPCTimeout: 20 * time.Second}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 64)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if splits := c.StatsTotal().GroupSplits; splits == 0 {
		t.Fatal("growth made no split; the test needs one")
	}
	led := len(c.Snapshot().Leaders)
	if n := awaitGroupWorkers(before + led); n != before+led {
		t.Fatalf("%d group workers for %d led groups", n-before, led)
	}
	c.Close()
	if n := awaitGroupWorkers(before); n != before {
		t.Fatalf("%d group workers still running after Close", n-before)
	}
}

// TestFullLeaderQueueAnswersRetry: a join or leave reaching a leader whose
// queue is at capacity is answered Retry at once, and the queue is left as
// it was.
func TestFullLeaderQueueAnswersRetry(t *testing.T) {
	c := newTestCluster(t, 8, 4, 1, 4)
	s := c.snodes[c.Snodes()[0]]
	// A group no vnode belongs to, led here, whose worker never runs.
	gid := core.GroupID{Bits: 5, Len: 20}
	lg := &ledGroup{id: gid, ops: make(chan groupOp, groupOpsCap)}
	for len(lg.ops) < cap(lg.ops) {
		lg.ops <- groupOp{}
	}
	s.mu.Lock()
	s.led[gid] = lg
	s.mu.Unlock()

	join, err := ask[joinGroupResp](&c.endpoint, s.id, untraced, func(op uint64) transport.WireMessage {
		return joinGroupReq{Op: op, Group: gid, NewVnode: VnodeName{Snode: s.id, Local: 99}, NewHost: s.id}
	})
	if err != nil || !join.Retry {
		t.Fatalf("join at a full leader queue = %+v, %v; want Retry", join, err)
	}
	leave, err := ask[leaveVnodeResp](&c.endpoint, s.id, untraced, func(op uint64) transport.WireMessage {
		return leaveVnodeReq{Op: op, Vnode: VnodeName{Snode: s.id, Local: 99}, Group: gid}
	})
	if err != nil || !leave.Retry {
		t.Fatalf("leave at a full leader queue = %+v, %v; want Retry", leave, err)
	}
	if n := len(lg.ops); n != groupOpsCap {
		t.Fatalf("queue holds %d ops after the refusals, want %d", n, groupOpsCap)
	}
}

func TestConcurrentDataAndJoins(t *testing.T) {
	c := newTestCluster(t, 8, 4, 6, 7)
	growCluster(t, c, 12)
	const keys = 300
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	// Joins and reads/writes race; everything must stay linearizable enough
	// that no key is lost and no operation errors.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := c.Snodes()
		for i := 0; i < 20; i++ {
			if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k%d", i)
				if w%2 == 0 {
					if _, found, err := c.Get(key); err != nil || !found {
						errs <- fmt.Errorf("get %s: %v found=%v", key, err, found)
						return
					}
				} else {
					if err := c.Put(key, []byte("v2")); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := verifySnapshot(t, c)
	total := 0
	for _, v := range snap.Vnodes {
		total += v.Keys
	}
	if total != keys {
		t.Fatalf("keys after churn = %d, want %d", total, keys)
	}
}

func TestRemoveVnodeCluster(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 8)
	names := growCluster(t, c, 16)
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := c.RemoveVnode(names[i]); err != nil {
			t.Fatalf("remove %v: %v", names[i], err)
		}
	}
	snap := verifySnapshot(t, c)
	if len(snap.Vnodes) != 10 {
		t.Fatalf("vnodes = %d, want 10", len(snap.Vnodes))
	}
	total := 0
	for _, v := range snap.Vnodes {
		total += v.Keys
	}
	if total != keys {
		t.Fatalf("keys after removals = %d, want %d", total, keys)
	}
	for i := 0; i < keys; i++ {
		if _, found, err := c.Get(fmt.Sprintf("k%d", i)); err != nil || !found {
			t.Fatalf("get k%d: %v %v", i, err, found)
		}
	}
	if err := c.RemoveVnode(VnodeName{Snode: 1, Local: 999}); err == nil {
		t.Fatal("removing unknown vnode must fail")
	}
}

func TestSetEnrollment(t *testing.T) {
	c := newTestCluster(t, 8, 4, 3, 9)
	growCluster(t, c, 6)
	ids := c.Snodes()
	n, err := c.SetEnrollment(ids[0], 5)
	if err != nil || n != 5 {
		t.Fatalf("SetEnrollment up: %d, %v", n, err)
	}
	n, err = c.SetEnrollment(ids[0], 2)
	if err != nil || n != 2 {
		t.Fatalf("SetEnrollment down: %d, %v", n, err)
	}
	verifySnapshot(t, c)
	if _, err := c.SetEnrollment(ids[0], -1); err == nil {
		t.Fatal("negative enrollment must fail")
	}
	if _, err := c.SetEnrollment(99, 1); err == nil {
		t.Fatal("unknown snode must fail")
	}
}

func TestRemoveSnode(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 10)
	growCluster(t, c, 16)
	const keys = 150
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Snodes()[1]
	if err := c.RemoveSnode(victim); err != nil {
		t.Fatalf("remove snode: %v", err)
	}
	if len(c.Snodes()) != 3 {
		t.Fatalf("snodes = %d", len(c.Snodes()))
	}
	snap := verifySnapshot(t, c)
	for _, v := range snap.Vnodes {
		if v.Host == victim {
			t.Fatalf("vnode %v still hosted at removed snode", v.Name)
		}
	}
	total := 0
	for _, v := range snap.Vnodes {
		total += v.Keys
	}
	if total != keys {
		t.Fatalf("keys after snode leave = %d, want %d", total, keys)
	}
	for i := 0; i < keys; i++ {
		if _, found, err := c.Get(fmt.Sprintf("k%d", i)); err != nil || !found {
			t.Fatalf("get k%d after snode leave: %v %v", i, err, found)
		}
	}
	if err := c.RemoveSnode(99); err == nil {
		t.Fatal("removing unknown snode must fail")
	}
}

func TestLookupMatchesOwner(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 11)
	growCluster(t, c, 10)
	if err := c.Put("route-me", []byte("x")); err != nil {
		t.Fatal(err)
	}
	owner, err := c.Lookup("route-me")
	if err != nil {
		t.Fatal(err)
	}
	snap := verifySnapshot(t, c)
	h := hashspace.HashString("route-me")
	for _, v := range snap.Vnodes {
		for _, p := range v.Partitions {
			if p.Contains(h) {
				if v.Name != owner {
					t.Fatalf("Lookup says %v, snapshot says %v", owner, v.Name)
				}
				return
			}
		}
	}
	t.Fatal("no vnode owns the key in the snapshot")
}

func TestClusterOverTCP(t *testing.T) {
	c, err := New(Config{Pmin: 8, Vmin: 4, Seed: 12, RPCTimeout: 20 * time.Second}, transport.NewTCP("127.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 10)
	for i := 0; i < 50; i++ {
		if err := c.Put(fmt.Sprintf("tcp-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	growCluster(t, c, 6) // rebalance over TCP moves real frame-encoded data
	for i := 0; i < 50; i++ {
		v, found, err := c.Get(fmt.Sprintf("tcp-%d", i))
		if err != nil || !found || v[0] != byte(i) {
			t.Fatalf("tcp get %d: %v %v %v", i, err, found, v)
		}
	}
	verifySnapshot(t, c)
}

func TestConfigValidationCluster(t *testing.T) {
	if _, err := New(Config{Pmin: 3, Vmin: 4}, transport.NewMem()); err == nil {
		t.Fatal("bad Pmin must fail")
	}
	if _, err := New(Config{Pmin: 4, Vmin: 3}, transport.NewMem()); err == nil {
		t.Fatal("bad Vmin must fail")
	}
	// A negative interval or count would panic a ticker later (a negative
	// LoadInterval on the first AddSnode); New refuses it instead.
	for name, cfg := range map[string]Config{
		"RPCTimeout":          {RPCTimeout: -time.Second},
		"AntiEntropyInterval": {Replicas: 2, AntiEntropyInterval: -time.Second},
		"FreezeTimeout":       {FreezeTimeout: -time.Second},
		"LoadInterval":        {LoadInterval: -time.Second},
		"FailoverPingMisses":  {FailoverPingMisses: -1},
		"TraceBuffer":         {TraceBuffer: -1},
		"TraceSample>1":       {TraceSample: 1.5},
		"TraceSample<0":       {TraceSample: -0.1},
		"TraceSample=NaN":     {TraceSample: math.NaN()},
	} {
		cfg.Pmin, cfg.Vmin = 8, 4
		if c, err := New(cfg, transport.NewMem()); err == nil {
			c.Close()
			t.Errorf("%s: New accepted an out-of-range value", name)
		}
	}
	// A negative interval that means "off" stays valid.
	off := Config{Pmin: 8, Vmin: 4, Balance: BalanceConfig{Interval: -1}, FailoverPingInterval: -1,
		Durability: DurabilityConfig{SnapshotInterval: -1}}
	if c, err := New(off, transport.NewMem()); err != nil {
		t.Errorf("negative off intervals must be accepted: %v", err)
	} else {
		c.Close()
	}
	c := newTestCluster(t, 8, 4, 1, 13)
	if _, _, err := c.CreateVnode(42); err == nil {
		t.Fatal("create at unknown snode must fail")
	}
}

func TestEmptyClusterDataOps(t *testing.T) {
	c := newTestCluster(t, 8, 4, 1, 14)
	// No vnodes yet: data ops must fail cleanly, not hang.
	if err := c.Put("k", []byte("v")); err == nil {
		t.Fatal("put on empty DHT must fail")
	}
	cEmpty, err := New(Config{Pmin: 8, Vmin: 4}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer cEmpty.Close()
	if err := cEmpty.Put("k", nil); err == nil {
		t.Fatal("put with no snodes must fail")
	}
}

// The LPDR replicas at member hosts converge to the leader's view.
func TestReplicaConvergence(t *testing.T) {
	c := newTestCluster(t, 8, 4, 4, 15)
	growCluster(t, c, 24)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		ok := true
		// Each group's leader replica and any member replica must agree on
		// membership size and level.
		type gview struct {
			level uint8
			n     int
		}
		leaderView := make(map[core.GroupID]gview)
		for host, reps := range snap.Replicas {
			for _, rep := range reps {
				if snap.Leaders[rep.Group] == host {
					leaderView[rep.Group] = gview{rep.Level, len(rep.Members)}
				}
			}
		}
		for _, reps := range snap.Replicas {
			for _, rep := range reps {
				lv, isLive := leaderView[rep.Group]
				if !isLive {
					continue // stale replica of a dissolved group
				}
				if lv.level != rep.Level || lv.n != len(rep.Members) {
					ok = false
				}
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replicas did not converge")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
