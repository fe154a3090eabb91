package dbdht_test

import (
	"fmt"
	"testing"

	"dbdht"
)

func TestFacadeLocal(t *testing.T) {
	d, err := dbdht.NewLocal(dbdht.Options{Pmin: 16, Vmin: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := d.AddVnode(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Vnodes() != 100 {
		t.Fatalf("V = %d", d.Vnodes())
	}
	if q := d.QualityOfBalancement(); q < 0 || q > 1 {
		t.Fatalf("σ̄ = %v", q)
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := dbdht.NewCluster(dbdht.ClusterOptions{Pmin: 8, Vmin: 4, Seed: 4})
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
	for i := 0; i < 9; i++ {
		if _, _, err := c.CreateVnode(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, found, err := c.Get(fmt.Sprintf("k%d", i)); err != nil || !found {
			t.Fatalf("get k%d: %v %v", i, err, found)
		}
	}
}

// ExampleNewLocal grows a small DHT and reports its balancement, showing
// the deterministic, seeded API surface.
func ExampleNewLocal() {
	d, err := dbdht.NewLocal(dbdht.Options{Pmin: 8, Vmin: 8, Seed: 1})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 16; i++ {
		if _, _, err := d.AddVnode(); err != nil {
			panic(err)
		}
	}
	// 16 vnodes is a power of two and fits one group: balance is perfect.
	fmt.Printf("vnodes=%d groups=%d sigma=%.1f%%\n",
		d.Vnodes(), d.Groups(), 100*d.QualityOfBalancement())
	// Output: vnodes=16 groups=1 sigma=0.0%
}
