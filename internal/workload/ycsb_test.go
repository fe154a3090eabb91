package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestZipfMatchesAnalytic checks the empirical head-rank frequencies
// against the analytic Zipf(s, 1) distribution rand.NewZipf draws from:
// P(k) ∝ (1+k)^-s over n keys.
func TestZipfMatchesAnalytic(t *testing.T) {
	const n, draws = 1000, 200000
	for _, tc := range []struct {
		s   float64
		tol float64 // relative tolerance on the head ranks
	}{
		{1.2, 0.10},
		{1.5, 0.10},
		{2.0, 0.10},
	} {
		t.Run(fmt.Sprintf("s=%v", tc.s), func(t *testing.T) {
			z, err := NewZipf(rand.New(rand.NewSource(11)), tc.s, n)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int)
			for i := 0; i < draws; i++ {
				counts[z.Next()]++
			}
			norm := 0.0
			for k := 0; k < n; k++ {
				norm += math.Pow(1+float64(k), -tc.s)
			}
			for k := 0; k < 5; k++ {
				want := math.Pow(1+float64(k), -tc.s) / norm
				got := float64(counts[fmt.Sprintf("key-%08d", k)]) / draws
				if math.Abs(got-want)/want > tc.tol {
					t.Errorf("rank %d: empirical %.4f vs analytic %.4f (>%v%% off)",
						k, got, want, 100*tc.tol)
				}
			}
		})
	}
}

// TestGenMixRatios checks the generator honours YCSB-style ratios
// within binomial tolerance, for each classic preset and a custom mix.
func TestGenMixRatios(t *testing.T) {
	const ops = 20000
	for _, tc := range []struct {
		name   string
		ratios MixRatios
	}{
		{"ycsb-a", YCSBA()},
		{"ycsb-b", YCSBB()},
		{"ycsb-c", YCSBC()},
		{"ycsb-e", YCSBE()},
		{"custom", MixRatios{Update: 0.2, Insert: 0.1, Scan: 0.1, Delete: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			keys, err := NewUniform(rng, 500)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGen(rng, keys, tc.ratios, 32, 8)
			if err != nil {
				t.Fatal(err)
			}
			var updates, inserts, scans, deletes, reads float64
			seenInserts := map[string]bool{}
			for i := 0; i < ops; i++ {
				op := g.Next()
				switch {
				case op.Kind == Put && strings.HasPrefix(op.Key, "ins-"):
					inserts++
					if seenInserts[op.Key] {
						t.Fatalf("insert key %q repeated — inserts must be fresh", op.Key)
					}
					seenInserts[op.Key] = true
					if len(op.Value) != 32 {
						t.Fatalf("insert value size = %d", len(op.Value))
					}
				case op.Kind == Put:
					updates++
					if len(op.Value) != 32 {
						t.Fatalf("update value size = %d", len(op.Value))
					}
				case op.Kind == Scan:
					scans++
					if op.ScanLen != 8 {
						t.Fatalf("scan len = %d, want 8", op.ScanLen)
					}
				case op.Kind == Delete:
					deletes++
				case op.Kind == Get:
					reads++
					if op.ScanLen != 0 || op.Value != nil {
						t.Fatal("get must carry no value or scan length")
					}
				}
			}
			readFrac := 1 - tc.ratios.Update - tc.ratios.Insert - tc.ratios.Scan - tc.ratios.Delete
			for _, c := range []struct {
				what string
				got  float64
				want float64
			}{
				{"updates", updates, tc.ratios.Update},
				{"inserts", inserts, tc.ratios.Insert},
				{"scans", scans, tc.ratios.Scan},
				{"deletes", deletes, tc.ratios.Delete},
				{"reads", reads, readFrac},
			} {
				got := c.got / ops
				// ±4 binomial standard deviations never flakes in practice.
				tol := 4 * math.Sqrt(c.want*(1-c.want)/ops)
				if math.Abs(got-c.want) > tol {
					t.Errorf("%s: %.4f of ops, want %.4f ± %.4f", c.what, got, c.want, tol)
				}
			}
		})
	}
}

// TestGenSeedDeterminism: two generators built from equal seeds emit
// identical op streams — keys, kinds, values, scan lengths; a different
// seed diverges.
func TestGenSeedDeterminism(t *testing.T) {
	build := func(seed int64) *Gen {
		rng := rand.New(rand.NewSource(seed))
		keys, err := NewZipf(rng, 1.3, 1000)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGen(rng, keys, MixRatios{Update: 0.4, Insert: 0.1, Scan: 0.1}, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b, c := build(7), build(7), build(8)
	diverged := false
	for i := 0; i < 5000; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x.Kind != y.Kind || x.Key != y.Key || x.ScanLen != y.ScanLen || !bytes.Equal(x.Value, y.Value) {
			t.Fatalf("op %d: equal seeds diverged: %+v vs %+v", i, x, y)
		}
		if x.Kind != z.Kind || x.Key != z.Key {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical 5000-op streams")
	}
}

func TestGenValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := NewSequential("k")
	if _, err := NewGen(nil, keys, MixRatios{}, 8, 1); err == nil {
		t.Fatal("nil rng must fail")
	}
	if _, err := NewGen(rng, nil, MixRatios{}, 8, 1); err == nil {
		t.Fatal("nil keys must fail")
	}
	if _, err := NewGen(rng, keys, MixRatios{Update: 0.9, Scan: 0.2}, 8, 1); err == nil {
		t.Fatal("ratios summing over 1 must fail")
	}
	if _, err := NewGen(rng, keys, MixRatios{Update: -0.1}, 8, 1); err == nil {
		t.Fatal("negative ratio must fail")
	}
	if _, err := NewGen(rng, keys, MixRatios{Scan: 0.5}, 8, 0); err == nil {
		t.Fatal("scan mix without scanLen must fail")
	}
	if _, err := NewGen(rng, keys, MixRatios{}, -1, 1); err == nil {
		t.Fatal("negative value size must fail")
	}
}

func TestChunkOps(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops, err := ChunkOps(rng, "blob-7", 10_000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := ChunkKeys("blob-7", 10_000, 4096)
	if len(ops) != 3 || len(wantKeys) != 3 {
		t.Fatalf("chunks = %d/%d, want 3", len(ops), len(wantKeys))
	}
	total := 0
	for i, op := range ops {
		if op.Kind != Put {
			t.Fatalf("chunk %d kind = %v", i, op.Kind)
		}
		if op.Key != wantKeys[i] {
			t.Fatalf("chunk %d key = %q, want %q", i, op.Key, wantKeys[i])
		}
		total += len(op.Value)
	}
	if total != 10_000 {
		t.Fatalf("chunk bytes = %d, want 10000", total)
	}
	if len(ops[0].Value) != 4096 || len(ops[2].Value) != 10_000-2*4096 {
		t.Fatalf("chunk sizes = %d, %d, %d", len(ops[0].Value), len(ops[1].Value), len(ops[2].Value))
	}
	// Chunk order must equal lexical key order (fixed-width suffix).
	for i := 1; i < len(ops); i++ {
		if !(ops[i-1].Key < ops[i].Key) {
			t.Fatalf("chunk keys out of lexical order: %q !< %q", ops[i-1].Key, ops[i].Key)
		}
	}
	if _, err := ChunkOps(nil, "b", 10, 4); err == nil {
		t.Fatal("nil rng must fail")
	}
	if _, err := ChunkOps(rng, "b", 0, 4); err == nil {
		t.Fatal("zero total must fail")
	}
	if _, err := ChunkOps(rng, "b", 10, 0); err == nil {
		t.Fatal("zero chunk must fail")
	}
}

// TestPacerOpenLoop holds the real clock only to what a loaded machine
// cannot break: sleeps never end early, so pacing takes at least the
// schedule and a stall shows up as lag.
func TestPacerOpenLoop(t *testing.T) {
	if _, err := NewPacer(0); err == nil {
		t.Fatal("zero rate must fail")
	}
	p, err := NewPacer(1000) // 1ms interval
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 50; i++ {
		p.Wait()
	}
	// 50 slots at 1ms spacing cannot complete much before 49ms.
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("50 paced ops finished in %v — pacer did not pace", el)
	}
	// Fall behind schedule: the next slot must report the backlog
	// instead of silently absorbing it (open-loop semantics).
	time.Sleep(30 * time.Millisecond)
	if lag := p.Wait(); lag < 20*time.Millisecond {
		t.Fatalf("lag = %v after a 30ms stall, want ≥ 20ms", lag)
	}
}

// TestPacerLagDoesNotAccumulate runs the pacer on a clock whose every
// sleep overshoots by up to 8ms, as on a loaded machine: a late wake-up
// makes the next few slots report lag, but while the generator keeps up
// the lag never exceeds one overshoot and the schedule does not drift.
// A stall is reported in full.
func TestPacerLagDoesNotAccumulate(t *testing.T) {
	const interval, maxOvershoot = time.Millisecond, 8 * time.Millisecond
	p, err := NewPacer(float64(time.Second / interval))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	start := p.start
	now := start
	p.now = func() time.Time { return now }
	p.sleep = func(d time.Duration) { now = now.Add(d + time.Duration(rng.Int63n(int64(maxOvershoot)))) }
	const ops = 10_000
	for i := 0; i < ops; i++ {
		if lag := p.Wait(); lag >= maxOvershoot {
			t.Fatalf("op %d reported lag %v, more than one sleep's overshoot", i, lag)
		}
	}
	behind := now.Sub(start.Add(ops * interval)) // how far past the next slot's due time
	if behind >= maxOvershoot {
		t.Fatalf("%d slots took %v past their schedule", ops, behind)
	}
	now = now.Add(30 * time.Millisecond)
	if lag := p.Wait(); lag != 30*time.Millisecond+behind {
		t.Fatalf("lag = %v after a 30ms stall, want %v", lag, 30*time.Millisecond+behind)
	}
}
