package main

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"
)

// TestKnownLimitLeaveUnderLoad is the repro of README "Known limits": the
// elastic workload with its RemoveSnode steps run while the clients are
// still sending, at R=1 and at R=2.  A batch in flight to the leaver then
// blocks until the client's 2 s deadline, or fails with "destination N
// not registered".  It is a probe, not a gate: it runs only when asked,
// and fails when a request failed.
//
//	BENCH_KNOWN_LIMITS=1 go test -C bench -run TestKnownLimitLeaveUnderLoad -count=5 -v .
func TestKnownLimitLeaveUnderLoad(t *testing.T) {
	if os.Getenv("BENCH_KNOWN_LIMITS") == "" {
		t.Skip("set BENCH_KNOWN_LIMITS=1 to probe the RemoveSnode-under-load hang")
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R%d", replicas), func(t *testing.T) {
			ctx := context.Background()
			e, cleanup, err := newEnv(ctx, time.Now().UnixNano()%1000, 8*time.Second, false, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			e.prof.Setups = 1
			w, _ := findWorkload("elastic_mixed")
			w.Replicas, w.LeaveUnderLoad = replicas, true
			rec, err := runE2E(ctx, e, w)
			if err != nil {
				t.Fatalf("run failed outright: %v", err)
			}
			t.Logf("seed %d: %d requests, %d failed, write p99 %.1f ms, rebalance %.2f s, %v keys lost",
				e.seed, rec.Requests, rec.Failed, rec.EndToEnd["write_p99_ms"].Value, rec.EndToEnd["rebalance_s"].Value, rec.EndToEnd["acked_lost"].Value)
			if rec.Failed > 0 || rec.EndToEnd["acked_lost"].Value > 0 {
				t.Errorf("hit: %d of %d requests failed: %v", rec.Failed, rec.Requests, rec.Errors)
			}
		})
	}
}
