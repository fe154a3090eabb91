package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dbdht/internal/cluster/transport"
)

func benchCluster(b *testing.B, pmin, vmin, snodes, vnodes int) *Cluster {
	b.Helper()
	c, err := New(Config{Pmin: pmin, Vmin: vmin, Seed: 1, RPCTimeout: 60 * time.Second}, transport.NewMem())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < snodes; i++ {
		if _, err := c.AddSnode(); err != nil {
			b.Fatal(err)
		}
	}
	ids := c.Snodes()
	for i := 0; i < vnodes; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkPut measures the end-to-end data-plane write path (client →
// entry snode → owner → client) through the message fabric.
func BenchmarkPut(b *testing.B) {
	c := benchCluster(b, 32, 8, 8, 32)
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(fmt.Sprintf("bench-key-%d", i%4096), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet measures the read path.
func BenchmarkGet(b *testing.B) {
	c := benchCluster(b, 32, 8, 8, 32)
	for i := 0; i < 4096; i++ {
		if err := c.Put(fmt.Sprintf("bench-key-%d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Get(fmt.Sprintf("bench-key-%d", i%4096)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelJoins is the ablation behind the paper's motivation
// (§3, first paragraph): with the *global* approach every vnode creation
// involves the whole DHT, so consecutive creations execute serially; the
// *local* approach serializes only within a group, so creations hitting
// different groups proceed in parallel.
//
// local: Vmin=4 over 64 existing vnodes ⇒ ~8–16 groups ⇒ concurrent joins
// land on different leaders.  global-like: Vmin=512 ⇒ one group ⇒ one
// leader serializes everything.  Same cluster size, same join count;
// compare ns/op.  The fabric models a 50µs one-way interconnect delay —
// balancement cost is latency-dominated on a real cluster, which is exactly
// why the paper parallelizes it.
func BenchmarkParallelJoins(b *testing.B) {
	const snodes, existing, joins = 8, 64, 32
	for _, cfg := range []struct {
		name string
		vmin int
	}{
		{"local-Vmin=4", 4},
		{"globalized-Vmin=512", 512},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				faults := transport.NewFaults(int64(i))
				c, err := New(Config{Pmin: 8, Vmin: cfg.vmin, Seed: int64(i), RPCTimeout: 120 * time.Second, Faults: faults}, transport.NewMem())
				if err != nil {
					b.Fatal(err)
				}
				for s := 0; s < snodes; s++ {
					if _, err := c.AddSnode(); err != nil {
						b.Fatal(err)
					}
				}
				ids := c.Snodes()
				all := append([]transport.NodeID{clientID}, ids...)
				faults.SetLinkDelay(all, all, 50*time.Microsecond, 0)
				for v := 0; v < existing; v++ {
					if _, _, err := c.CreateVnode(ids[v%len(ids)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				var wg sync.WaitGroup
				errs := make(chan error, joins)
				for j := 0; j < joins; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						if _, _, err := c.CreateVnode(ids[j%len(ids)]); err != nil {
							errs <- err
						}
					}(j)
				}
				wg.Wait()
				b.StopTimer()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}

// BenchmarkMigrationCost reports the data volume moved per join: the
// storage/time resource the paper trades against balancement quality
// (§4.1.2).
func BenchmarkMigrationCost(b *testing.B) {
	const keys = 8192
	b.ReportAllocs()
	var keysMoved, joins int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := New(Config{Pmin: 16, Vmin: 4, Seed: int64(i), RPCTimeout: 60 * time.Second}, transport.NewMem())
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 4; s++ {
			if _, err := c.AddSnode(); err != nil {
				b.Fatal(err)
			}
		}
		ids := c.Snodes()
		for v := 0; v < 8; v++ {
			if _, _, err := c.CreateVnode(ids[v%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < keys; k++ {
			if err := c.Put(fmt.Sprintf("k%d", k), []byte("0123456789abcdef")); err != nil {
				b.Fatal(err)
			}
		}
		before := c.StatsTotal().KeysMoved
		b.StartTimer()
		for v := 0; v < 8; v++ {
			if _, _, err := c.CreateVnode(ids[v%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		keysMoved += c.StatsTotal().KeysMoved - before
		joins += 8
		c.Close()
	}
	b.ReportMetric(float64(keysMoved)/float64(joins), "keys-moved/join")
}
