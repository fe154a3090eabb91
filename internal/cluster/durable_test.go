package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
	"dbdht/internal/wal"
)

// durableCluster boots a mem-fabric cluster journaling into dir.
func durableCluster(t *testing.T, dir string, snodes, vnodes int, mode wal.FsyncMode, replicas int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 42, Replicas: replicas,
		RPCTimeout:          10 * time.Second,
		AntiEntropyInterval: 50 * time.Millisecond,
		Durability: DurabilityConfig{
			Dir: dir, Fsync: mode,
			SnapshotInterval: -1, // snapshots only via SnapshotNow in tests
		},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			c.Close()
			t.Fatal(err)
		}
	}
	return c
}

// ackedPuts MPuts n keys with the given prefix and returns those acked.
func ackedPuts(t *testing.T, c *Cluster, prefix string, n int) map[string][]byte {
	t.Helper()
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("%s-%05d", prefix, i), Value: []byte(fmt.Sprintf("val-%s-%05d", prefix, i))}
	}
	res, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string][]byte, n)
	for i, r := range res {
		if r.OK() {
			acked[items[i].Key] = items[i].Value
		}
	}
	return acked
}

// verifyReadable asserts every key in want reads back with its value.
func verifyReadable(t *testing.T, c *Cluster, want map[string][]byte) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	res, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, r := range res {
		if !r.OK() || !r.Found || string(r.Value) != string(want[r.Key]) {
			lost++
			if lost <= 3 {
				t.Errorf("key %q: ok=%v found=%v value=%q err=%q", r.Key, r.OK(), r.Found, r.Value, r.Err)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged keys lost", lost, len(want))
	}
}

// TestSingleSnodeRestartRecovers is the tentpole's acceptance scenario:
// R=1, one snode, fsync=batch — kill it abruptly (the WAL's userspace
// buffer is abandoned, not flushed) and restart it; zero acknowledged
// writes may be lost.
func TestSingleSnodeRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 1, 4, wal.FsyncBatch, 1)
	defer c.Close()

	acked := ackedPuts(t, c, "restart", 3000)
	if len(acked) == 0 {
		t.Fatal("nothing acknowledged")
	}
	// Delete a slice of them: deletions must also survive recovery.
	var dels []string
	for i := 0; i < 3000; i += 10 {
		k := fmt.Sprintf("restart-%05d", i)
		if _, ok := acked[k]; ok {
			dels = append(dels, k)
		}
	}
	res, err := c.MDelete(dels)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.OK() {
			delete(acked, r.Key)
		}
	}

	id := c.Snodes()[0]
	if err := c.KillSnode(id); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartSnode(id); err != nil {
		t.Fatal(err)
	}
	verifyReadable(t, c, acked)

	// Deleted keys must stay deleted.
	got, err := c.MGet(dels)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.OK() && r.Found {
			t.Fatalf("deleted key %q resurrected by recovery", r.Key)
		}
	}

	// The recovered snode keeps serving writes (leadership recovered too:
	// new vnodes can still enroll through the recovered group leaders).
	more := ackedPuts(t, c, "post", 500)
	verifyReadable(t, c, more)
	if _, _, err := c.CreateVnode(id); err != nil {
		t.Fatalf("enrollment after recovery: %v", err)
	}
}

// TestRestartWithSurvivors kills one snode of three (R=1) and restarts
// it: the recovered regions must be readable again from the handle —
// the recovery announcement re-grows the custody pointers the crash
// pruned at the survivors.
func TestRestartWithSurvivors(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 3, 9, wal.FsyncBatch, 1)
	defer c.Close()

	acked := ackedPuts(t, c, "multi", 3000)
	id := c.Snodes()[1]
	if err := c.KillSnode(id); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartSnode(id); err != nil {
		t.Fatal(err)
	}
	verifyReadable(t, c, acked)
}

// TestSnapshotReplayEquivalence proves snapshot+tail recovery equals
// full-log recovery: state is mutated across a SnapshotNow barrier (so
// recovery must stitch snapshot and tail together), then the snode is
// crash-stopped and restarted.
func TestSnapshotReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 1, 4, wal.FsyncBatch, 1)
	defer c.Close()

	want := ackedPuts(t, c, "pre", 1500)
	if err := c.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations: overwrites, fresh keys, deletions.
	over := make([]KV, 0, 300)
	i := 0
	for k := range want {
		if i >= 300 {
			break
		}
		over = append(over, KV{Key: k, Value: []byte("overwritten-" + k)})
		i++
	}
	res, err := c.MPut(over)
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range res {
		if r.OK() {
			want[over[j].Key] = over[j].Value
		}
	}
	for k, v := range ackedPuts(t, c, "post", 800) {
		want[k] = v
	}
	var dels []string
	i = 0
	for k := range want {
		if i >= 200 {
			break
		}
		dels = append(dels, k)
		i++
	}
	dres, err := c.MDelete(dels)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dres {
		if r.OK() {
			delete(want, r.Key)
		}
	}

	id := c.Snodes()[0]
	if err := c.KillSnode(id); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartSnode(id); err != nil {
		t.Fatal(err)
	}
	verifyReadable(t, c, want)
	got, err := c.MGet(dels)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.OK() && r.Found {
			t.Fatalf("deleted key %q resurrected", r.Key)
		}
	}
}

// TestSnapshotUnderConcurrentWrites hammers writes while snapshot passes
// run, then crash-restarts — the cut consistency argument under real
// concurrency (meaningful chiefly under -race).
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 2, 6, wal.FsyncOff, 1)
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	written := make(map[string][]byte)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]KV, 32)
				for j := range batch {
					k := fmt.Sprintf("conc-%d-%d-%d", g, r, j)
					batch[j] = KV{Key: k, Value: []byte("v-" + k)}
				}
				res, err := c.MPut(batch)
				if err != nil {
					continue
				}
				mu.Lock()
				for j, br := range res {
					if br.OK() {
						written[batch[j].Key] = batch[j].Value
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := c.SnapshotNow(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()

	// Graceful stop flushes the WAL even at fsync=off, so a restart after
	// a CLEAN shutdown must recover everything acknowledged.
	ids := c.Snodes()
	for _, id := range ids {
		c.mu.Lock()
		s := c.snodes[id]
		c.mu.Unlock()
		_ = s // graceful path: RemoveSnode would migrate data; stop directly instead
	}
	c.Close()

	c2, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 42, Replicas: 1,
		RPCTimeout: 10 * time.Second,
		Durability: DurabilityConfig{Dir: dir, Fsync: wal.FsyncOff, SnapshotInterval: -1},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for range ids {
		if _, err := c2.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	verifyReadable(t, c2, written)
}

// TestWholeClusterRestart reboots a multi-snode cluster over the same
// data dir — the dhtd restart story: every snode recovers its share and
// the handle adopts the recovered DHT instead of bootstrapping over it.
func TestWholeClusterRestart(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 3, 9, wal.FsyncBatch, 1)
	want := ackedPuts(t, c, "boot", 2000)
	if err := c.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	for k, v := range ackedPuts(t, c, "tail", 500) {
		want[k] = v
	}
	c.Close() // graceful: flush everything

	c2, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 42, Replicas: 1,
		RPCTimeout: 10 * time.Second,
		Durability: DurabilityConfig{Dir: dir, Fsync: wal.FsyncBatch, SnapshotInterval: -1},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for i := 0; i < 3; i++ {
		if _, err := c2.AddSnode(); err != nil {
			t.Fatal(err)
		}
	}
	verifyReadable(t, c2, want)
	// And it still takes writes.
	verifyReadable(t, c2, ackedPuts(t, c2, "reborn", 300))
}

// TestDamagedSnapshotRefusesRecovery: the log behind a snapshot is
// truncated, so a snapshot is trusted only whole.  A flipped byte, a file
// cut before its end record and a data directory in the per-bucket
// snapshot layout of earlier releases each make RestartSnode fail, never
// bring back an snode serving part of its state.
func TestDamagedSnapshotRefusesRecovery(t *testing.T) {
	snapshotFile := func(snodeDir string) string { return filepath.Join(snodeDir, "snapshot") }
	rewrite := func(t *testing.T, path string, edit func([]byte) []byte) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, snodeDir string)
		want   string
	}{
		{"flipped byte", func(t *testing.T, snodeDir string) {
			rewrite(t, snapshotFile(snodeDir), func(b []byte) []byte {
				b[len(b)/2] ^= 0x10
				return b
			})
		}, "damaged"},
		{"cut before its end record", func(t *testing.T, snodeDir string) {
			var offset, last int
			if err := wal.ReadSnapshot(snapshotFile(snodeDir), func(payload []byte) error {
				offset += last
				last = 8 + len(payload) // length and CRC, then the payload
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rewrite(t, snapshotFile(snodeDir), func(b []byte) []byte { return b[:offset] })
		}, "ends before its end record"},
		{"per-bucket layout", func(t *testing.T, snodeDir string) {
			if err := os.MkdirAll(filepath.Join(snodeDir, "snap"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(snodeDir, "snap", "MANIFEST"), []byte{0, 0, 0, 1}, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "snap/MANIFEST"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := durableCluster(t, dir, 1, 2, wal.FsyncBatch, 1)
			defer c.Close()
			ackedPuts(t, c, "snap", 500)
			if err := c.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
			id := c.Snodes()[0]
			if err := c.KillSnode(id); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, snodeDataDir(dir, id))
			err := c.RestartSnode(id)
			if err == nil {
				t.Fatal("RestartSnode recovered from a damaged snapshot")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestartSnode: %v; want an error naming %q", err, tc.want)
			}
			if ids := c.Snodes(); len(ids) != 0 {
				t.Fatalf("snodes %v serve after a refused recovery", ids)
			}
		})
	}
}

// TestDurableMigrationWriteThrough runs partition migrations (via
// enrollment changes) with durability on, then crash-restarts BOTH
// snodes: the migrated buckets must come back on the new owner, not the
// old one, and no acknowledged key may be lost.
func TestDurableMigrationWriteThrough(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 2, 2, wal.FsyncBatch, 1)
	defer c.Close()

	acked := ackedPuts(t, c, "mig", 2000)
	// Force handovers: enroll several more vnodes at snode 2.
	ids := c.Snodes()
	if _, err := c.SetEnrollment(ids[1], 6); err != nil {
		t.Fatal(err)
	}
	moved := c.StatsTotal().PartitionsSent
	if moved == 0 {
		t.Fatal("no partitions migrated; test exercises nothing")
	}
	for k, v := range ackedPuts(t, c, "mig2", 1000) {
		acked[k] = v
	}

	for _, id := range ids {
		if err := c.KillSnode(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if err := c.RestartSnode(id); err != nil {
			t.Fatal(err)
		}
	}
	verifyReadable(t, c, acked)
}

// TestReplicaStoreRecovers: with R=2, a restarted snode recovers its
// replica buckets too, and every acknowledged key stays readable.
func TestReplicaStoreRecovers(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 3, 6, wal.FsyncBatch, 2)
	defer c.Close()

	acked := ackedPuts(t, c, "repl", 2000)
	// Let anti-entropy settle the replica placement.
	time.Sleep(300 * time.Millisecond)

	ids := c.Snodes()
	// Crash-restart snode 3: its replica store must come back from disk.
	if err := c.KillSnode(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartSnode(ids[2]); err != nil {
		t.Fatal(err)
	}
	s := func() *Snode {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.snodes[ids[2]]
	}()
	if len(s.replicaPartitions()) == 0 {
		t.Fatal("restarted snode recovered no replica buckets")
	}
	verifyReadable(t, c, acked)
}

// TestWALStatsSurface sanity-checks the aggregated counters.
func TestWALStatsSurface(t *testing.T) {
	dir := t.TempDir()
	c := durableCluster(t, dir, 1, 2, wal.FsyncBatch, 1)
	defer c.Close()
	ackedPuts(t, c, "stats", 100)
	st := c.WALStats()
	if st.Appends == 0 || st.Bytes == 0 || st.Fsyncs == 0 {
		t.Fatalf("expected non-zero WAL counters, got %+v", st)
	}
	if on, mode := c.DurabilityEnabled(); !on || mode != wal.FsyncBatch {
		t.Fatalf("DurabilityEnabled = %v, %v", on, mode)
	}
	if err := c.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if st := c.WALStats(); st.SnapWrites == 0 {
		t.Fatalf("no snapshot writes recorded: %+v", st)
	}
}

// TestRestartReshipsNoCopies: after a whole-cluster restart every replica
// target holds a whole copy replayed from its journal, and no primary
// knows yet where copies are.  The first write to each partition must
// confirm them by digest instead of shipping every bucket again, and the
// confirmed copies must hold the writes: a crash right after loses none.
func TestRestartReshipsNoCopies(t *testing.T) {
	before, c2 := restartedCluster(t, "before")
	// Reading every key back teaches the handle every route, so each
	// partition's first write arrives in one batch: concurrent first
	// writes race their digests and may ship a bucket.
	verifyReadable(t, c2, before)
	hashed := c2.StatsTotal().AEKeysHashed
	after := ackedPuts(t, c2, "after", 500)
	if len(after) != 500 {
		t.Fatalf("%d of 500 puts acknowledged", len(after))
	}
	if n := c2.StatsTotal().AEKeysHashed - hashed; n > 0 {
		t.Errorf("the first writes after the restart shipped %d keys in whole buckets", n)
	}

	// Only the rewritten partitions are read back: a replayed copy no
	// write has reached since the restart does not know its primary, so
	// it cannot stand for it.
	if err := c2.KillSnode(c2.Snodes()[0]); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(after))
	for k := range after {
		keys = append(keys, k)
	}
	for _, r := range mgetAcrossPromotion(t, c2, keys) {
		if !r.OK() || !r.Found || string(r.Value) != string(after[r.Key]) {
			t.Fatalf("key %q after the crash: ok=%v found=%v err=%q", r.Key, r.OK(), r.Found, r.Err)
		}
	}
}

// restartedCluster boots 3 durable snodes at R=2, grows 6 vnodes, stores
// 2,000 keys named after prefix and waits for every copy to be placed,
// then stops the whole cluster and boots it again from its journals with
// anti-entropy paced at an hour, so only the write path (or a pass the
// test runs) places copies.  It returns the keys and the rebooted
// cluster, once every snode's view is complete.
func restartedCluster(t *testing.T, prefix string) (map[string][]byte, *Cluster) {
	t.Helper()
	dir := t.TempDir()
	boot := func(ae time.Duration) *Cluster {
		c, err := New(Config{
			Pmin: 32, Vmin: 8, Seed: 42, Replicas: 2,
			RPCTimeout:          10 * time.Second,
			AntiEntropyInterval: ae,
			Durability:          DurabilityConfig{Dir: dir, Fsync: wal.FsyncBatch, SnapshotInterval: -1},
		}, transport.NewMem())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.AddSnode(); err != nil {
				c.Close()
				t.Fatal(err)
			}
		}
		return c
	}
	c := boot(50 * time.Millisecond)
	growCluster(t, c, 6)
	acked := ackedPuts(t, c, prefix, 2000)
	waitConverged(t, c)
	c.Close()

	c2 := boot(time.Hour)
	t.Cleanup(c2.Close)
	// A primary that has not heard of every snode yet places copies on
	// the hosts it knows: wait for the full view.
	for deadline := time.Now().Add(5 * time.Second); !viewsComplete(c2); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the restarted snodes did not learn the full view")
		}
	}
	return acked, c2
}

// TestReplayedCopiesVoteAfterProbe: a copy replayed from the journal after
// a whole-cluster restart knows neither its primary nor its group until
// an anti-entropy probe confirms it.  After one pass every primary's
// crash must leave its keys readable through a promoted copy, quiet
// partitions included.
func TestReplayedCopiesVoteAfterProbe(t *testing.T) {
	before, c := restartedCluster(t, "voter")
	for _, s := range c.liveSnodes() {
		s.antiEntropyPass()
	}
	if err := c.KillSnode(c.Snodes()[0]); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(before))
	for k := range before {
		keys = append(keys, k)
	}
	for _, r := range mgetAcrossPromotion(t, c, keys) {
		if !r.OK() || !r.Found || string(r.Value) != string(before[r.Key]) {
			t.Fatalf("key %q after the crash: ok=%v found=%v err=%q", r.Key, r.OK(), r.Found, r.Err)
		}
	}
}

// viewsComplete reports whether every snode's view lists every snode.
func viewsComplete(c *Cluster) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.snodes {
		s.mu.Lock()
		n := len(s.view)
		s.mu.Unlock()
		if n != len(c.snodes) {
			return false
		}
	}
	return true
}
