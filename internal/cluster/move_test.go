package cluster

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// A partition move is a replica sync plus an install (migrate.go).  These
// tests hold the rules that keep the two apart from the replica plane:
// the installed copy is frozen, anti-entropy leaves a moving partition
// alone, an aborted move drops only the copy it made, and `placed` names
// only hosts of partitions their snode owns.

// moveCluster boots snodes snodes of cfg (its replicas, durability,
// faults and RPC timeout, 10 s if unset) with anti-entropy paced at an
// hour (a test runs its passes itself), one vnode on the first snode and
// 500 acknowledged keys, and places every copy with one pass per snode.
func moveCluster(t *testing.T, snodes int, cfg Config) (*Cluster, []*Snode, map[string][]byte) {
	t.Helper()
	cfg.Pmin, cfg.Vmin, cfg.Seed = 8, 4, 11
	cfg.AntiEntropyInterval = time.Hour
	if cfg.RPCTimeout == 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	c, err := New(cfg, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.CreateVnode(c.Snodes()[0]); err != nil {
		t.Fatal(err)
	}
	acked := ackedPuts(t, c, "move", 500)
	ss := c.liveSnodes()
	for _, s := range ss {
		s.antiEntropyPass()
	}
	return c, ss, acked
}

// orphanCopies makes every commit the snodes of ss send fail cleanly: the
// copies of the moving partition lose their primary, so the receiver
// refuses the commit and the sender aborts.
func orphanCopies(ss []*Snode) {
	for _, s := range ss {
		armCommitHook(s, func(p hashspace.Partition) error {
			for _, o := range ss {
				o.mu.Lock()
				if b, ok := o.rparts[p]; ok {
					b.prim = 0
				}
				o.mu.Unlock()
			}
			return nil
		})
	}
}

// barrier returns once every message from snode from to snode to sent
// before it has been handled: the fabric keeps a pair's messages in order.
func barrier(t *testing.T, from, to *Snode) {
	t.Helper()
	if _, err := pingTo(&from.endpoint, to.id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// placedClean fails unless every snode's `placed` entries are for
// partitions it owns and never name the snode itself.
func placedClean(t *testing.T, c *Cluster, step string) {
	t.Helper()
	for _, s := range c.liveSnodes() {
		s.mu.Lock()
		for p, hosts := range s.placed {
			if _, owned := s.owned[p]; !owned {
				t.Errorf("after %s: snode %d keeps placed %v for %v, which it does not own", step, s.id, hosts, p)
			}
			if slices.Contains(hosts, s.id) {
				t.Errorf("after %s: snode %d names itself in placed %v for %v", step, s.id, hosts, p)
			}
		}
		s.mu.Unlock()
	}
}

// TestMoveInstallFreezesCopy holds a move's install in its durable wait
// (a slow disk) and delivers, meanwhile, a replica write for the moving
// partition from its sender, as a fan-out still in flight would arrive.
// The receiver's copy must have left the replica store when its install
// was journaled, so the late write finds nothing to change and the
// installed partition holds the acknowledged values.
func TestMoveInstallFreezesCopy(t *testing.T) {
	faults := wal.NewFaults(1)
	c, ss, acked := moveCluster(t, 2, Config{Replicas: 2, Durability: DurabilityConfig{
		Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1, Faults: faults,
	}})
	sender, receiver := ss[0], ss[1]
	reached := make(chan hashspace.Partition, 1)
	var first atomic.Bool
	armCommitHook(sender, func(p hashspace.Partition) error {
		if first.CompareAndSwap(false, true) {
			faults.SetSlowFsync(300*time.Millisecond, 0)
			reached <- p
		}
		return nil
	})
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.CreateVnode(receiver.id)
		joined <- err
	}()
	var p hashspace.Partition
	select {
	case p = <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("no move reached its commit")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		receiver.mu.Lock()
		_, held := receiver.rparts[p]
		_, _, owned := receiver.ownedForLocked(p.Start())
		receiver.mu.Unlock()
		if !held && !owned {
			break // journaled, not yet live
		}
		if owned || time.Now().After(deadline) {
			faults.Heal()
			t.Fatalf("the copy of %v stayed in the replica store until its install went live", p)
		}
	}
	var stale []batchItem
	for k := range acked {
		if p.Contains(hashspace.HashString(k)) {
			stale = append(stale, batchItem{Key: k, Value: []byte("stale")})
		}
	}
	if len(stale) == 0 {
		t.Fatalf("no acknowledged key in %v", p)
	}
	receiver.handleReplWrite(replWriteReq{Kind: opPut, Sets: []replWriteSet{{Partition: p, Items: stale, Ver: 1}}}, sender.id, untraced)
	faults.Heal()
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	verifyReadable(t, c, acked)
}

// owners counts the snodes of ss that own the region of p.
func owners(ss []*Snode, p hashspace.Partition) int {
	n := 0
	for _, s := range ss {
		s.mu.Lock()
		if _, _, ok := s.ownedForLocked(p.Start()); ok {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// TestMoveGivenUpDuringInstallLeavesOneOwner moves a partition to a
// vnode that stays when the move fails, and holds the install in its
// durable wait longer than the commit's RPC timeout: the sender sees no
// ACK, finds the receiver not owning the partition and aborts.  The
// install must not go live after that, whether the move made the
// receiver a holder (R=1) or it was a target already (R=2), nor come back
// when the receiver replays its journal: exactly one snode owns it.
func TestMoveGivenUpDuringInstallLeavesOneOwner(t *testing.T) {
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", r), func(t *testing.T) {
			faults := wal.NewFaults(1)
			c, ss, acked := moveCluster(t, 2, Config{Replicas: r, RPCTimeout: 500 * time.Millisecond, Durability: DurabilityConfig{
				Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1, Faults: faults,
			}})
			sender, receiver := ss[0], ss[1]
			to, _, err := c.CreateVnode(receiver.id)
			if err != nil {
				t.Fatal(err)
			}
			receiver.mu.Lock()
			rv := receiver.vnodes[to]
			receiver.mu.Unlock()
			sender.mu.Lock()
			var vs *vnodeState
			var p hashspace.Partition
			for _, v := range sender.vnodes {
				for q := range v.parts {
					vs, p = v, q
				}
			}
			sender.mu.Unlock()
			if vs == nil || vs.group != rv.group || vs.level != rv.level {
				t.Fatalf("no partition at the sender in the receiver's group %v, level %d", rv.group, rv.level)
			}
			bk := vs.parts[p]
			if !bk.claim() {
				t.Fatalf("%v not claimable", p)
			}
			armCommitHook(sender, func(hashspace.Partition) error {
				faults.SetSlowFsync(1500*time.Millisecond, 0)
				return nil
			})
			if _, err := sender.migratePartition(vs.group, to, receiver.id, p, vs.level, vs, bk); err == nil {
				t.Fatal("the move committed although its install outlasted the commit's timeout")
			}
			// The install's wait ends with the receiver owning p, or with
			// the custody pointer its refusal journals.
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				receiver.mu.Lock()
				_, tombed := receiver.tombs[p]
				_, _, owned := receiver.ownedForLocked(p.Start())
				receiver.mu.Unlock()
				if tombed || owned {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the install of %v never ended", p)
				}
			}
			faults.Heal()
			if n := owners(ss, p); n != 1 {
				t.Fatalf("%d snodes own %v after its move was given up", n, p)
			}
			if r == 1 {
				receiver.dur.log.WaitDurable(receiver.dur.log.NextSeq() - 1)
				if err := c.KillSnode(receiver.id); err != nil {
					t.Fatal(err)
				}
				if err := c.RestartSnode(receiver.id); err != nil {
					t.Fatal(err)
				}
				if n := owners(c.liveSnodes(), p); n != 1 {
					t.Fatalf("%d snodes own %v after the receiver replayed its journal", n, p)
				}
			}
			verifyReadable(t, c, acked)
		})
	}
}

// TestRecoveryDropsUnfedCopies: a copy that no primary will feed or
// drop is gone once its snode recovers — a move's receiver that crashed
// between the sync and the commit at R=1, and a copy of a partition the
// snode itself owns, as a move between two of its vnodes leaves.
func TestRecoveryDropsUnfedCopies(t *testing.T) {
	t.Run("R1/receiver-crashed-before-commit", func(t *testing.T) {
		c, ss, acked := moveCluster(t, 2, Config{Replicas: 1, Durability: DurabilityConfig{
			Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1,
		}})
		sender, receiver := ss[0], ss[1]
		reached := make(chan hashspace.Partition, 1)
		release := make(chan struct{})
		var first atomic.Bool
		armCommitHook(sender, func(p hashspace.Partition) error {
			if first.CompareAndSwap(false, true) {
				reached <- p
				<-release
			}
			return nil
		})
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			_, _, _ = c.CreateVnode(receiver.id)
		}()
		var p hashspace.Partition
		select {
		case p = <-reached:
		case <-time.After(10 * time.Second):
			t.Fatal("no move reached its commit")
		}
		receiver.mu.Lock()
		_, held := receiver.rparts[p]
		receiver.mu.Unlock()
		if !held {
			t.Fatalf("the receiver holds no copy of %v at the commit", p)
		}
		if err := c.KillSnode(receiver.id); err != nil {
			t.Fatal(err)
		}
		close(release)
		<-joined
		if err := c.RestartSnode(receiver.id); err != nil {
			t.Fatal(err)
		}
		for _, s := range c.liveSnodes() {
			s.mu.Lock()
			if len(s.rparts) > 0 {
				t.Errorf("snode %d keeps %d copies at R=1 after its restart", s.id, len(s.rparts))
			}
			s.mu.Unlock()
		}
		verifyReadable(t, c, acked)
	})
	t.Run("R2/copy-of-own-partition", func(t *testing.T) {
		dir := t.TempDir()
		cfg := Config{Replicas: 2, Durability: DurabilityConfig{Dir: dir, Fsync: wal.FsyncBatch, SnapshotInterval: -1}}
		c, ss, acked := moveCluster(t, 2, cfg)
		a := ss[0]
		a.mu.Lock()
		var p hashspace.Partition
		for p = range a.owned {
			break
		}
		a.mu.Unlock()
		if _, _, err := a.syncReplica(p, a.id); err != nil {
			t.Fatal(err)
		}
		c.Close()
		cfg.Pmin, cfg.Vmin, cfg.Seed = 8, 4, 11
		cfg.RPCTimeout, cfg.AntiEntropyInterval = 10*time.Second, time.Hour
		c2, err := New(cfg, transport.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c2.Close)
		for range ss {
			if _, err := c2.AddSnode(); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range c2.liveSnodes() {
			s.mu.Lock()
			for q := range s.rparts {
				for o := range s.owned {
					if o.Overlaps(q) {
						t.Errorf("snode %d keeps a copy of %v, which overlaps its own %v", s.id, q, o)
					}
				}
			}
			s.mu.Unlock()
		}
		verifyReadable(t, c2, acked)
	})
}

// TestAntiEntropyLeavesClaimedBucketAlone: a pass neither probes nor
// hands off a partition that is moving out, so it cannot drop the copy a
// move's receiver is about to install — also when the move claims it
// while the pass waits for its probe.  Once the claim ends, the same
// pass repairs the target and hands the extra holder off.
func TestAntiEntropyLeavesClaimedBucketAlone(t *testing.T) {
	faults := transport.NewFaults(1)
	c, ss, _ := moveCluster(t, 3, Config{Replicas: 2, Faults: faults})
	growCluster(t, c, 2)
	for _, s := range ss {
		s.antiEntropyPass()
	}
	a := ss[0]
	a.mu.Lock()
	var p hashspace.Partition
	var bk *bucket
	for q, ref := range a.owned {
		p, bk = q, ref.bk
		break
	}
	if bk == nil {
		a.mu.Unlock()
		t.Fatal("snode owns no partition")
	}
	tgtID := a.targets[0]
	a.mu.Unlock()
	var tgt, extra *Snode
	for _, s := range ss {
		switch s.id {
		case a.id:
		case tgtID:
			tgt = s
		default:
			extra = s
		}
	}
	// The extra host holds a copy as a move's receiver does, and the
	// target loses its own.
	if _, _, err := a.syncReplica(p, extra.id); err != nil {
		t.Fatal(err)
	}
	tgt.mu.Lock()
	delete(tgt.rparts, p)
	tgt.mu.Unlock()
	if !bk.claim() {
		t.Fatalf("%v not claimable", p)
	}
	held := func(s *Snode) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.rparts[p]
		return ok
	}
	placedAt := func() []transport.NodeID {
		a.mu.Lock()
		defer a.mu.Unlock()
		return slices.Clone(a.placed[p])
	}

	a.antiEntropyPass()
	if held(tgt) {
		t.Errorf("anti-entropy probed claimed %v: its target got a copy", p)
	}
	if !slices.Contains(placedAt(), extra.id) {
		t.Errorf("anti-entropy handed claimed %v off: placed %v lacks snode %d", p, placedAt(), extra.id)
	}

	unclaim := func() {
		bk.mu.Lock()
		bk.dirty = nil
		bk.mu.Unlock()
	}
	unclaim()
	a.antiEntropyPass()
	if !held(tgt) {
		t.Errorf("unclaimed %v: its target got no copy", p)
	}
	if slices.Contains(placedAt(), extra.id) {
		t.Errorf("unclaimed %v: placed %v still names snode %d", p, placedAt(), extra.id)
	}

	// A move claims p after the pass read its digest, while the probe is
	// still on a slow link: the target confirms p, and the hand-off must
	// still spare the extra holder.
	if _, _, err := a.syncReplica(p, extra.id); err != nil {
		t.Fatal(err)
	}
	faults.SetLinkDelay([]transport.NodeID{a.id}, []transport.NodeID{tgt.id}, 300*time.Millisecond, 0)
	passed := make(chan struct{})
	go func() {
		a.antiEntropyPass()
		close(passed)
	}()
	time.Sleep(100 * time.Millisecond)
	if !bk.claim() {
		t.Fatalf("%v not claimable", p)
	}
	<-passed
	faults.Heal()
	if !slices.Contains(placedAt(), extra.id) {
		t.Errorf("anti-entropy handed %v off although a move claimed it mid-pass: placed %v", p, placedAt())
	}
	unclaim()
}

// TestAbortedMoveDropsOnlyItsCopy refuses every commit of a join.  A
// receiver the sync made a holder drops its copy and leaves the fan-out
// set; a receiver that was a target already keeps its copy.
func TestAbortedMoveDropsOnlyItsCopy(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r      int
		target bool // the receiver is a target of every partition
	}{
		{"R1/receiver-was-no-holder", 1, false},
		{"R2/receiver-was-a-target", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ss, acked := moveCluster(t, 2, Config{Replicas: tc.r})
			sender, receiver := ss[0], ss[1]
			orphanCopies(ss)
			if _, _, err := c.CreateVnode(receiver.id); err == nil {
				t.Fatal("join succeeded although every commit was refused")
			}
			barrier(t, sender, receiver)
			sender.mu.Lock()
			for p, hosts := range sender.placed {
				if slices.Contains(hosts, receiver.id) != tc.target {
					t.Errorf("%v: placed %v at the sender", p, hosts)
				}
			}
			sender.mu.Unlock()
			sender.mu.Lock()
			receiver.mu.Lock()
			for p := range sender.owned {
				_, ok := receiver.rparts[p]
				if !ok {
					_, _, ok = receiver.replicaAboveLocked(p)
				}
				if ok != tc.target {
					t.Errorf("%v: receiver holds a copy: %v, want %v", p, ok, tc.target)
				}
			}
			receiver.mu.Unlock()
			sender.mu.Unlock()
			verifyReadable(t, c, acked)
		})
	}
}

// TestMovesLeavePlacedClean grows a cluster by joins on every snode —
// moves between snodes and within one — then refuses every commit of one
// more join.  After each, no snode keeps `placed` for a partition it does
// not own, and none names itself there.
func TestMovesLeavePlacedClean(t *testing.T) {
	for _, tc := range []struct {
		name      string
		r, snodes int
	}{
		{"R1", 1, 2},
		{"R2", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ss, acked := moveCluster(t, tc.snodes, Config{Replicas: tc.r})
			for i := 0; i < 2*len(ss); i++ {
				if _, _, err := c.CreateVnode(ss[i%len(ss)].id); err != nil {
					t.Fatal(err)
				}
				placedClean(t, c, "a join")
			}
			orphanCopies(ss)
			if _, _, err := c.CreateVnode(ss[0].id); err == nil {
				t.Fatal("join succeeded although every commit was refused")
			}
			placedClean(t, c, "an aborted join")
			verifyReadable(t, c, acked)
		})
	}
}
