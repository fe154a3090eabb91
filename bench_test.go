// Figure-level benchmarks: one per table/figure of the paper's evaluation
// (§4).  Each benchmark regenerates the figure's underlying experiment at
// reduced run count (benchmarks measure cost; cmd/dhtsim reproduces the
// figures at full paper scale) and reports the headline metric via
// b.ReportMetric so `go test -bench` output doubles as a results table:
//
//	sigma%   final σ̄ of the experiment's quality metric (×100)
//	groups   final number of groups (figure 7)
package dbdht_test

import (
	"fmt"
	"strconv"
	"testing"

	"dbdht"
	"dbdht/internal/sim"
)

// benchOpts keeps each figure benchmark to a few hundred milliseconds per
// iteration while preserving the paper's 1024-vnode horizon.
func benchOpts(seed int64) sim.Options {
	return sim.Options{Runs: 4, Vnodes: 1024, Seed: seed, SampleEvery: 1024}
}

func BenchmarkFig4LocalQuality(b *testing.B) {
	for _, pv := range []int{8, 32, 128} {
		b.Run(benchName("PminVmin", pv), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s, err := sim.LocalQuality(pv, pv, benchOpts(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = s.Last()
			}
			b.ReportMetric(100*last, "sigma%")
		})
	}
}

func BenchmarkFig5Theta(b *testing.B) {
	var min int
	for i := 0; i < b.N; i++ {
		pts, err := sim.Theta([]int{8, 16, 32, 64, 128}, 0.5, sim.Options{Runs: 2, Vnodes: 1024, Seed: int64(i), SampleEvery: 1024})
		if err != nil {
			b.Fatal(err)
		}
		best := pts[0]
		for _, p := range pts {
			if p.Theta < best.Theta {
				best = p
			}
		}
		min = best.Vmin
	}
	b.ReportMetric(float64(min), "argmin-Vmin")
}

func BenchmarkFig6VminSweep(b *testing.B) {
	for _, vmin := range []int{8, 64, 512} {
		b.Run(benchName("Vmin", vmin), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s, err := sim.LocalQuality(32, vmin, benchOpts(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = s.Last()
			}
			b.ReportMetric(100*last, "sigma%")
		})
	}
}

func BenchmarkFig7GroupEvolution(b *testing.B) {
	var groups float64
	for i := 0; i < b.N; i++ {
		ge, err := sim.Groups(32, 32, benchOpts(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		groups = ge.Real.Last()
	}
	b.ReportMetric(groups, "groups")
}

func BenchmarkFig8GroupQuality(b *testing.B) {
	var q float64
	for i := 0; i < b.N; i++ {
		ge, err := sim.Groups(32, 32, benchOpts(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		q = ge.Quality.Last()
	}
	b.ReportMetric(100*q, "sigma%")
}

func BenchmarkFig9ConsistentHashing(b *testing.B) {
	for _, k := range []int{32, 64} {
		b.Run(benchName("pts", k), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s, err := sim.CHQuality(k, benchOpts(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = s.Last()
			}
			b.ReportMetric(100*last, "sigma%")
		})
	}
}

func BenchmarkFig9LocalCounterpart(b *testing.B) {
	for _, vmin := range []int{32, 512} {
		b.Run(benchName("Vmin", vmin), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				s, err := sim.LocalQuality(32, vmin, benchOpts(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				last = s.Last()
			}
			b.ReportMetric(100*last, "sigma%")
		})
	}
}

func BenchmarkStability8192(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		s, err := sim.LocalQuality(32, 32, sim.Options{Runs: 1, Vnodes: 8192, Seed: int64(i), SampleEvery: 8192})
		if err != nil {
			b.Fatal(err)
		}
		last = s.Last()
	}
	b.ReportMetric(100*last, "sigma%")
}

func BenchmarkDoublingRatio(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		_, ratios, err := sim.PlateauRatio([]int{16, 32}, 0.25, sim.Options{Runs: 2, Vnodes: 1024, Seed: int64(i), SampleEvery: 8})
		if err != nil {
			b.Fatal(err)
		}
		r = ratios[0]
	}
	b.ReportMetric(r, "ratio")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// benchCluster boots a quiesced data-plane cluster for throughput
// benchmarks: 8 snodes, 32 vnodes, in-memory fabric.  Batched and
// replicated throughput, on either medium, is measured by bench/'s layer
// metrics (cluster.{mem,tcp}_m{put,get}_keys_per_s.*).
func benchCluster(b *testing.B) *dbdht.Cluster {
	b.Helper()
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{Pmin: 32, Vmin: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < 8; i++ {
		if _, err := c.AddSnode(); err != nil {
			b.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < 32; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkClusterPut measures single-key puts: one serial request/response
// round-trip per key.  Compare its keys/s with cluster.mem_mput_keys_per_s.R1
// (batch 256 on the same shape, bench/) to see the batching win.
func BenchmarkClusterPut(b *testing.B) {
	c := benchCluster(b)
	value := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(fmt.Sprintf("bench-key-%d", i%4096), value); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}
