package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs is the -smoke profile at a 2 s window: it checks the harness
// end to end and measures nothing.
var smokeArgs = []string{"-smoke", "-seconds", "2", "-seed", "5"}

// TestSmokeLedger runs all four workloads, the traced runs and the layer
// stage, and checks the record: every metric named in the tables present,
// finite and unit-tagged, nothing lost, and the interaction table's
// bypass zeros.
func TestSmokeLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dhtd four times")
	}
	out := filepath.Join(t.TempDir(), "record.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append(smokeArgs, "-out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("bench exited %d\n%s", code, stderr.String())
	}
	r, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		rec := r.Workloads[w.Name]
		if rec == nil {
			t.Fatalf("no record for %s", w.Name)
		}
		if rec.Requests == 0 || rec.Failed != 0 {
			t.Errorf("%s: %d requests, %d failed: %v", w.Name, rec.Requests, rec.Failed, rec.Errors)
		}
		if err := rec.EndToEnd.finite(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if err := rec.PerLayer.finite(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		for _, s := range e2eSpecs {
			applies := s.Contract || strings.HasPrefix(s.Name, "latency_") || s.Name == "server_cpu_s_per_mkeys" || s.Name == "failed_frac" || s.Name == "acked_lost" ||
				(strings.HasPrefix(s.Name, "write_") && w.WriteFrac > 0) ||
				(strings.HasPrefix(s.Name, "read_") && w.WriteFrac < 1) ||
				(s.Name == "wal_bytes_per_user_byte" && w.Durable && w.WriteFrac > 0) ||
				(s.Name == "recovery_s" && w.KillRestart) ||
				(w.Elastic && (s.Name == "rebalance_s" || s.Name == "sigma_qv_pct" || s.Name == "moved_keys_per_stored_key"))
			v, ok := rec.EndToEnd[s.Name]
			switch {
			case ok != applies:
				t.Errorf("%s: %s present=%v, applies=%v", w.Name, s.Name, ok, applies)
			case ok && v.Unit != s.Unit:
				t.Errorf("%s: %s in %q, want %q", w.Name, s.Name, v.Unit, s.Unit)
			case ok && s.Contract && !(v.Value > 0):
				t.Errorf("%s: %s = %v, want > 0", w.Name, s.Name, v.Value)
			}
		}
		if lost := rec.EndToEnd["acked_lost"].Value; lost != 0 {
			t.Errorf("%s: %v acknowledged keys lost: %v", w.Name, lost, rec.Errors)
		}
		for _, s := range layerSpecs {
			set := rec.PerLayer
			if s.Source == "stage" {
				set = r.Layers
			}
			if v, ok := set[s.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, s.Name)
			} else if v.Unit != s.Unit {
				t.Errorf("%s: %s in %q, want %q", w.Name, s.Name, v.Unit, s.Unit)
			}
		}
		for n := range rec.PerLayer {
			if _, ok := findLayer(n); !ok {
				t.Errorf("%s: metric %s is not in the layer table", w.Name, n)
			}
		}
		for n := range rec.EndToEnd {
			if _, ok := findE2E(n); !ok {
				t.Errorf("%s: metric %s is not in the end-to-end table", w.Name, n)
			}
		}
		if got := rec.PerLayer["trace.unaccounted_share"].Value; got > 0.10 || got < -0.10 {
			t.Errorf("%s: trace.unaccounted_share = %v", w.Name, got)
		}
	}
	// The workloads discriminate.
	layer := func(w, n string) float64 { return r.Workloads[w].PerLayer[n].Value }
	for _, n := range []string{"wal.appends_per_key", "cluster.repl_writes_per_key"} {
		if layer("write_durable", n) <= 0 || layer("single_mixed", n) <= 0 {
			t.Errorf("%s is not > 0 on the durable writers", n)
		}
		if layer("read_batch", n) != 0 || layer("elastic_mixed", n) != 0 {
			t.Errorf("%s is not exactly 0 on read_batch (%v) and elastic_mixed (%v)", n, layer("read_batch", n), layer("elastic_mixed", n))
		}
	}
	for _, w := range workloads {
		chunks := layer(w.Name, "migrate.chunks_per_kkeys_moved")
		if (chunks > 0) != w.Elastic {
			t.Errorf("%s: migrate.chunks_per_kkeys_moved = %v", w.Name, chunks)
		}
	}
	if got := r.Layers["transport.gob_frames.dataplane"].Value; got != 0 {
		t.Errorf("transport.gob_frames.dataplane = %v, want 0", got)
	}
	if !strings.Contains(stdout.String(), "write_durable  throughput_keys_per_s") {
		t.Errorf("stdout lacks `workload metric value unit` lines:\n%.400s", stdout.String())
	}
	// A record agrees with itself.
	var cmp bytes.Buffer
	if code := runCompare([]string{out, out}, &cmp, &stderr); code != 0 {
		t.Errorf("compare of a record with itself exits %d:\n%s", code, cmp.String())
	}
	assertCleanedUp(t)
}

// TestSmokeContract runs one workload the way the driver does and checks
// the result object's keys against BENCHMARK.json's lists.
func TestSmokeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("starts dhtd")
	}
	m := buildManifest()
	for _, tc := range []struct {
		trace string
		want  []manifestMetric
	}{{"0", m.EndToEnd}, {"1", m.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := append(smokeArgs, "--workload", "elastic_mixed", "--trace", tc.trace)
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: bench exited %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res contractResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", tc.trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", tc.trace, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", tc.trace, len(res.Metrics), len(tc.want))
		}
		for _, w := range tc.want {
			if v, ok := res.Metrics[w.Name]; !ok || v.Unit != w.Unit {
				t.Errorf("trace %s: metric %s missing or in %q, want %q", tc.trace, w.Name, v.Unit, w.Unit)
			}
		}
	}
	assertCleanedUp(t)
}

// finite reports whether every metric is a real number.
func (m metricSet) finite() error {
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	return nil
}

func findE2E(name string) (e2eSpec, bool) {
	for _, s := range e2eSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return e2eSpec{}, false
}

func findLayer(name string) (layerSpec, bool) {
	for _, s := range layerSpecs {
		if s.Name == name {
			return s, true
		}
	}
	return layerSpec{}, false
}

// assertCleanedUp checks that no temporary data dir outlived its run.
func assertCleanedUp(t *testing.T) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(filepath.Join(buildDir(root), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("%d temporary run dirs left behind, e.g. %s", len(left), left[0].Name())
	}
}
