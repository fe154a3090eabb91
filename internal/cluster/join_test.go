package cluster

import (
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/core"
	"dbdht/internal/hashspace"
	"dbdht/internal/wal"
)

// senderCluster boots a durable R=2 cluster of two snodes: snode 1
// holds the DHT's vnodes and some acknowledged keys, snode 2 is empty.  A vnode created on snode 2 then joins by moves from snode 1
// alone.
func senderCluster(t *testing.T, vnodes int) (c *Cluster, sender, receiver *Snode, acked map[string][]byte) {
	t.Helper()
	c, err := New(Config{
		Pmin: 8, Vmin: 4, Seed: 7, Replicas: 2,
		RPCTimeout: 10 * time.Second,
		Durability: DurabilityConfig{Dir: t.TempDir(), Fsync: wal.FsyncBatch, SnapshotInterval: -1},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		if _, _, err := c.CreateVnode(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
	acked = ackedPuts(t, c, "join", 1000)
	c.mu.Lock()
	sender, receiver = c.snodes[ids[0]], c.snodes[ids[1]]
	c.mu.Unlock()
	return c, sender, receiver, acked
}

// armCommitHook installs fn at the sender's last step before each
// migration commit.  Safe without s.mu: no migration runs yet, and the
// CreateVnode call that starts one orders this write before its reads.
func armCommitHook(s *Snode, fn func(hashspace.Partition) error) {
	s.testCrashBeforeCommit = fn
}

// TestJoinMovesRunConcurrently holds one move of a join at its commit
// and requires every other move of the plan, all from the same victim
// vnode, to reach its own commit meanwhile: the moves run at once, and
// concurrent transfers from one vnode pick distinct partitions.
func TestJoinMovesRunConcurrently(t *testing.T) {
	// One vnode of Pmin 8 partitions: the join splits the scope to 16
	// and the newcomer takes 8 of them from that one victim.
	const moves = 8
	c, sender, receiver, acked := senderCluster(t, 1)
	arrived := make(chan hashspace.Partition, 2*moves)
	release := make(chan struct{})
	var holding atomic.Bool
	armCommitHook(sender, func(p hashspace.Partition) error {
		arrived <- p
		if holding.CompareAndSwap(false, true) {
			<-release
		}
		return nil
	})
	fsyncs0 := c.WALStats().Fsyncs
	joined := make(chan error, 1)
	go func() {
		_, _, err := c.CreateVnode(receiver.id)
		joined <- err
	}()

	seen := make(map[hashspace.Partition]bool)
	select {
	case p := <-arrived:
		seen[p] = true
	case <-time.After(15 * time.Second):
		t.Fatal("no move of the join reached its commit")
	}
wait:
	for len(seen) < moves {
		select {
		case p := <-arrived:
			if seen[p] {
				t.Errorf("partition %v reached a commit twice", p)
			}
			seen[p] = true
		case <-time.After(5 * time.Second):
			t.Errorf("only %d of the join's %d moves reached their commit while one was held", len(seen), moves)
			break wait
		}
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	t.Logf("join of %d moves: %.2f fsyncs per move", moves, float64(c.WALStats().Fsyncs-fsyncs0)/moves)

	for _, v := range verifySnapshot(t, c).Vnodes {
		if got := len(v.Partitions); got != moves {
			t.Errorf("vnode %v holds %d partitions, want %d", v.Name, got, moves)
		}
	}
	verifyReadable(t, c, acked)
}

// refuseCommits makes s's first n migration commits (every one for n < 0)
// fail cleanly: the receiver has lost the copy the move's sync made, so it
// refuses the commit and s aborts.
func refuseCommits(s, receiver *Snode, n int32) {
	var reached atomic.Int32
	armCommitHook(s, func(p hashspace.Partition) error {
		if k := reached.Add(1); n < 0 || k <= n {
			receiver.mu.Lock()
			delete(receiver.rparts, p)
			receiver.mu.Unlock()
		}
		return nil
	})
}

// heldMatchesLeader checks the cluster's invariants and that the root
// group's leader, on snode leader, counts for each vnode the partitions
// it holds; it returns those counts.
func heldMatchesLeader(t *testing.T, c *Cluster, leader *Snode) map[VnodeName]int {
	t.Helper()
	held := make(map[VnodeName]int)
	for _, v := range verifySnapshot(t, c).Vnodes {
		held[v.Name] = len(v.Partitions)
	}
	leader.mu.Lock()
	lg := leader.led[core.GroupID{}]
	leader.mu.Unlock()
	if lg == nil {
		t.Fatalf("snode %d does not lead the root group", leader.id)
	}
	if counts := lg.table.Counts(); !maps.Equal(counts, held) {
		t.Errorf("leader table %v, vnodes hold %v", counts, held)
	}
	return held
}

// TestFailedJoinMovesLeaveExactLPDR fails moves of a join at their
// commit.  A join lands whole or not at all: the moves that landed go
// back to their victims, the new vnode is gone, every vnode holds Pmin to
// Pmax partitions (G4), and the leader's table matches what each vnode
// holds.  The next join must then succeed.
func TestFailedJoinMovesLeaveExactLPDR(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vnodes int   // victims: the join splits the scope to vnodes×16
		fail   int32 // moves whose commit is refused; -1 for all
	}{
		{"one-victim/one-move-fails", 1, 1},
		{"two-victims/one-move-fails", 2, 1},
		{"two-victims/every-move-fails", 2, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, sender, receiver, acked := senderCluster(t, tc.vnodes)
			// checkG4 also requires the group to have want vnodes.
			checkG4 := func(want int) {
				t.Helper()
				held := heldMatchesLeader(t, c, sender)
				for v, n := range held {
					if n < c.cfg.Pmin || n > 2*c.cfg.Pmin {
						t.Errorf("vnode %v holds %d partitions, outside [Pmin, Pmax]", v, n)
					}
				}
				if len(held) != want {
					t.Errorf("vnodes %v, want %d", held, want)
				}
			}
			refuseCommits(sender, receiver, tc.fail)
			if _, _, err := c.CreateVnode(receiver.id); err == nil {
				t.Fatal("join succeeded although a move's commit was refused")
			}
			armCommitHook(sender, nil)
			checkG4(tc.vnodes)
			if _, _, err := c.CreateVnode(receiver.id); err != nil {
				t.Fatalf("next join: %v", err)
			}
			checkG4(tc.vnodes + 1)
			verifyReadable(t, c, acked)
		})
	}
}

// TestFailedLeaveMovesBack fails one move of a leave at its commit.  A
// leave lands whole or not at all, like a join: the moves that landed go
// back to the leaving vnode, which ends at its pre-leave count with every
// vnode inside [Pmin, Pmax] (G4), and the leader's table matches what each
// vnode holds.  The retried leave then moves everything and drops the
// vnode.
func TestFailedLeaveMovesBack(t *testing.T) {
	c, sender, receiver, acked := senderCluster(t, 2)
	name, _, err := c.CreateVnode(receiver.id)
	if err != nil {
		t.Fatal(err)
	}
	before := heldMatchesLeader(t, c, sender)[name]
	refuseCommits(receiver, sender, 1)
	if err := c.RemoveVnode(name); err == nil {
		t.Fatal("leave succeeded although a move's commit was refused")
	}
	armCommitHook(receiver, nil)
	held := heldMatchesLeader(t, c, sender)
	if held[name] != before {
		t.Errorf("leaving vnode holds %d partitions after one refused move, want its %d before the leave", held[name], before)
	}
	for v, n := range held {
		if n < c.cfg.Pmin || n > 2*c.cfg.Pmin {
			t.Errorf("vnode %v holds %d partitions, outside [Pmin, Pmax]", v, n)
		}
	}
	if err := c.RemoveVnode(name); err != nil {
		t.Fatalf("retried leave: %v", err)
	}
	if held := heldMatchesLeader(t, c, sender); len(held) != 2 {
		t.Errorf("vnodes %v after the leave, want the two of snode %d", held, sender.id)
	}
	verifyReadable(t, c, acked)
}
