package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbdht/internal/balance"
	"dbdht/internal/cluster/transport"
)

// snodeQuotaSigma computes the convergence metric from a quiescent
// snapshot: relative stddev of capacity-normalized per-snode quotas.
func snodeQuotaSigma(c *Cluster) float64 {
	snap := c.Snapshot()
	caps := c.Capacities()
	quotas := snap.VnodeQuotas()
	loads := make(map[transport.NodeID]*SnodeLoad)
	for id, w := range caps {
		loads[id] = &SnodeLoad{Snode: id, Capacity: w}
	}
	for i, v := range snap.Vnodes {
		loads[v.Host].Quota += quotas[i]
	}
	flat := make([]SnodeLoad, 0, len(loads))
	for _, l := range loads {
		flat = append(flat, *l)
	}
	return QuotaSigma(flat)
}

// runBalancerConvergence is the ISSUE-4 acceptance scenario on any
// fabric: 1:4 heterogeneous capacities start equally enrolled, a 10×
// hot-spot key skew writes continuously, and balancer rounds must pull
// the capacity-normalized per-snode quota deviation below the threshold
// with zero acknowledged-write loss and zero FreezeTimeout errors.
func runBalancerConvergence(t *testing.T, net transport.Network, seed int64) {
	t.Helper()
	const threshold = 0.2
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: seed,
		RPCTimeout:   20 * time.Second,
		LoadInterval: 10 * time.Millisecond,
		Balance:      BalanceConfig{QuotaDeviation: threshold, MaxMovesPerRound: 2},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, w := range []float64{1, 1, 4, 4} {
		if _, err := c.AddSnodeWithCapacity(w); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 16; i++ { // equal enrollment — wrong for 1:4 capacities
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}

	const n = 4000
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("skew-%05d", i), Value: []byte(fmt.Sprintf("v-%05d", i))}
	}
	results, err := c.MPut(items)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.OK() {
			t.Fatalf("preload %q: %s", r.Key, r.Err)
		}
	}

	// Sustained 10× hot-spot skew on a key range DISJOINT from the
	// preload: 90% of writes hammer a hot tenth of the writer keys.  The
	// preload keys are never rewritten, so a migration that drops one
	// cannot be masked by a later identical write — the final per-key
	// check genuinely detects acknowledged-write loss.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ackedWrites, failedWrites atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := make([]KV, 32)
				for j := range batch {
					idx := (r*32 + j*7) % (n / 10)
					if j%10 == 0 {
						idx = (r*32 + j*13) % n
					}
					k := fmt.Sprintf("hot-%05d", idx)
					batch[j] = KV{Key: k, Value: []byte("h-" + k)}
				}
				res, err := c.MPut(batch)
				if err != nil {
					continue
				}
				for _, br := range res {
					if br.OK() {
						ackedWrites.Add(1)
					} else {
						failedWrites.Add(1)
					}
				}
			}
		}()
	}

	first, err := c.BalanceNow()
	if err != nil {
		t.Fatalf("first balance round: %v", err)
	}
	if first.Sigma <= threshold {
		t.Fatalf("equal enrollment over 1:4 capacities should start unbalanced, got sigma=%.3f", first.Sigma)
	}
	last := first
	for round := 0; round < 40 && last.Sigma > threshold; round++ {
		if last, err = c.BalanceNow(); err != nil {
			t.Fatalf("balance round: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	if sigma := snodeQuotaSigma(c); sigma > threshold {
		t.Fatalf("per-snode quota deviation did not converge: sigma=%.3f > %.2f", sigma, threshold)
	}
	st := c.StatsTotal()
	if st.FreezeTimeouts != 0 {
		t.Fatalf("%d writes hit FreezeTimeout during live migrations", st.FreezeTimeouts)
	}
	if st.PartitionsSent == 0 || st.ChunksSent == 0 {
		t.Fatalf("balancer converged without chunked migrations? partitions=%d chunks=%d", st.PartitionsSent, st.ChunksSent)
	}
	if failedWrites.Load() != 0 {
		t.Fatalf("%d writes failed during rebalancing (%d succeeded)", failedWrites.Load(), ackedWrites.Load())
	}
	// Zero acknowledged-write loss: every preload key still readable with
	// a current value (writers only rewrite the same values).
	keys := make([]string, n)
	for i := range items {
		keys[i] = items[i].Key
	}
	reads, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if !r.OK() || !r.Found || string(r.Value) != string(items[i].Value) {
			t.Fatalf("acknowledged key %q lost after rebalancing: %+v", keys[i], r)
		}
	}
	bs := c.BalancerStats()
	if bs.Rounds == 0 || bs.Moves == 0 {
		t.Fatalf("balancer stats empty: %+v", bs)
	}
}

func TestBalancerConvergesMem(t *testing.T) {
	runBalancerConvergence(t, transport.NewMem(), 41)
}

func TestBalancerConvergesTCP(t *testing.T) {
	runBalancerConvergence(t, transport.NewTCP("127.0.0.1"), 42)
}

// TestBalancerBackgroundLoop: with an interval configured, the loop runs
// rounds on its own and converges a capacity-skewed cluster without any
// BalanceNow calls.
func TestBalancerBackgroundLoop(t *testing.T) {
	c, err := New(Config{
		Pmin: 32, Vmin: 8, Seed: 43,
		RPCTimeout:   20 * time.Second,
		LoadInterval: 10 * time.Millisecond,
		Balance:      BalanceConfig{Interval: 20 * time.Millisecond, QuotaDeviation: 0.2, MaxMovesPerRound: 4},
	}, transport.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, w := range []float64{1, 4} {
		if _, err := c.AddSnodeWithCapacity(w); err != nil {
			t.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 8; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if sigma := snodeQuotaSigma(c); sigma <= 0.2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background loop did not converge: sigma=%.3f after 10s (rounds=%d)",
				snodeQuotaSigma(c), c.BalancerStats().Rounds)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if c.BalancerStats().Rounds == 0 {
		t.Fatal("background loop ran no rounds")
	}
}

// TestBalancerRespectsThreshold: a balanced homogeneous cluster must not
// be churned.
func TestBalancerRespectsThreshold(t *testing.T) {
	c, err := New(Config{Pmin: 32, Vmin: 8, Seed: 44, RPCTimeout: 20 * time.Second}, transport.NewMem())
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
	for i := 0; i < 16; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	before := c.StatsTotal().PartitionsSent
	for i := 0; i < 3; i++ {
		round, err := c.BalanceNow()
		if err != nil {
			t.Fatal(err)
		}
		if round.Moves != 0 {
			t.Fatalf("round on a balanced cluster made %d moves (sigma=%.3f)", round.Moves, round.Sigma)
		}
	}
	if moved := c.StatsTotal().PartitionsSent - before; moved != 0 {
		t.Fatalf("balanced cluster migrated %d partitions", moved)
	}
}

// TestLoadReportObservesTraffic: the EWMA counters must attribute reads
// and writes to the snodes that own the touched partitions.
func TestLoadReportObservesTraffic(t *testing.T) {
	c, err := New(Config{
		Pmin: 16, Vmin: 4, Seed: 45,
		RPCTimeout: 20 * time.Second, LoadInterval: 5 * time.Millisecond,
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
	for i := 0; i < 4; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 512; i++ {
			if err := c.Put(fmt.Sprintf("load-%d", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		loads, err := c.LoadReport()
		if err != nil {
			t.Fatal(err)
		}
		var writes float64
		for _, l := range loads {
			writes += l.Writes
		}
		if writes > 0 {
			return // EWMA picked the traffic up
		}
		if time.Now().After(deadline) {
			t.Fatalf("load report never observed write traffic: %+v", loads)
		}
	}
}

// TestWeightedTargets pins the capacity apportionment rule.
func TestWeightedTargets(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	cases := []struct {
		weights map[int]float64
		total   int
		want    map[int]int
	}{
		{map[int]float64{1: 1, 2: 1, 3: 4, 4: 4}, 20, map[int]int{1: 2, 2: 2, 3: 8, 4: 8}},
		{map[int]float64{1: 1, 2: 1}, 3, map[int]int{1: 2, 2: 1}},   // remainder to smallest key
		{map[int]float64{1: 1, 2: 100}, 4, map[int]int{1: 1, 2: 3}}, // min-one fixup
		{map[int]float64{1: 2, 2: 2}, 0, map[int]int{1: 0, 2: 0}},
	}
	for _, tc := range cases {
		got, err := balance.WeightedTargets(tc.weights, tc.total, less)
		if err != nil {
			t.Fatalf("WeightedTargets(%v, %d): %v", tc.weights, tc.total, err)
		}
		for k, w := range tc.want {
			if got[k] != w {
				t.Fatalf("WeightedTargets(%v, %d) = %v, want %v", tc.weights, tc.total, got, tc.want)
			}
		}
	}
	if _, err := balance.WeightedTargets(map[int]float64{1: -1}, 4, less); err == nil {
		t.Fatal("negative weight accepted")
	}
}

// TestChunkedMigrationUnderWrites: a transfer of a hot partition must
// complete while writes keep landing, with the data intact at the new
// owner, no FreezeTimeout errors, and the migration actually chunked.
func TestChunkedMigrationUnderWrites(t *testing.T) {
	c, err := New(Config{
		Pmin: 8, Vmin: 4, Seed: 46,
		RPCTimeout: 20 * time.Second,
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
	if _, _, err := c.CreateVnode(ids[0]); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("mig-%05d", i), Value: []byte(fmt.Sprintf("v-%05d", i))}
	}
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]KV, 16)
			for j := range batch {
				batch[j] = items[(r*16+j)%n]
			}
			res, err := c.MPut(batch)
			if err != nil {
				continue
			}
			for _, br := range res {
				if !br.OK() {
					failed.Add(1)
				}
			}
		}
	}()

	// Every join triggers §2.5 transfers from the loaded snode's vnode.
	for i := 0; i < 6; i++ {
		if _, _, err := c.CreateVnode(ids[1]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	st := c.StatsTotal()
	if st.ChunksSent == 0 {
		t.Fatal("transfers moved data without chunked streaming")
	}
	if st.FreezeTimeouts != 0 {
		t.Fatalf("%d writes hit FreezeTimeout during chunked migration", st.FreezeTimeouts)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d writes failed during chunked migration", failed.Load())
	}
	keys := make([]string, n)
	for i := range items {
		keys[i] = items[i].Key
	}
	reads, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if !r.OK() || !r.Found || string(r.Value) != string(items[i].Value) {
			t.Fatalf("key %q corrupted by live migration: %+v", keys[i], r)
		}
	}
}

// TestMigrationShipsConcurrentWrites pins the delta semantics: a value
// overwritten WHILE its partition streams out must arrive at the new
// owner in its newest version, and a key deleted mid-stream must not
// resurrect.
func TestMigrationShipsConcurrentWrites(t *testing.T) {
	c, err := New(Config{
		Pmin: 4, Vmin: 4, Seed: 47,
		RPCTimeout: 20 * time.Second,
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
	if _, _, err := c.CreateVnode(ids[0]); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	items := make([]KV, n)
	for i := range items {
		items[i] = KV{Key: fmt.Sprintf("delta-%05d", i), Value: []byte("old")}
	}
	if _, err := c.MPut(items); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			i := r % n
			if i%2 == 0 {
				_ = c.Put(items[i].Key, []byte("new"))
			} else {
				_, _ = c.Delete(items[i].Key)
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, _, err := c.CreateVnode(ids[1]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Writer state is deterministic per key: even → "new" or "old",
	// odd → deleted or "old".  Anything else means a delta was lost.
	keys := make([]string, n)
	for i := range items {
		keys[i] = items[i].Key
	}
	reads, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reads {
		if !r.OK() {
			t.Fatalf("key %q unreadable after migration: %s", keys[i], r.Err)
		}
		switch {
		case i%2 == 0:
			if !r.Found || (string(r.Value) != "new" && string(r.Value) != "old") {
				t.Fatalf("even key %q = %+v, want old or new value", keys[i], r)
			}
		default:
			if r.Found && string(r.Value) != "old" {
				t.Fatalf("odd key %q = %+v, want deleted or old", keys[i], r)
			}
		}
	}
}
