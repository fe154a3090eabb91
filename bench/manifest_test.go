package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestManifestMatchesTables keeps the committed BENCHMARK.json equal to
// what the metric tables generate (`bench manifest > BENCHMARK.json`).
func TestManifestMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . manifest > BENCHMARK.json`")
	}
}

// TestManifestMeetsContract checks the limits the driver refuses a
// manifest for.
func TestManifestMeetsContract(t *testing.T) {
	var (
		m      = buildManifest()
		nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		seen   = map[string]bool{}
	)
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("why of %s is empty, over 200 characters or not one line (%d)", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > contractBoundCap {
			t.Errorf("bound of %s is missing or outside (0, %v]", e.Name, contractBoundCap)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	for _, e := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("unit %q of %s is outside the contract's alphabet or length", e.Unit, e.Name)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better = %q", e.Name, e.Better)
		}
	}
	for _, e := range m.PerLayer {
		name(e.Name)
		if e.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", e.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}
