package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// quick scales a catalog scenario down for tier-1: a quarter of the ops
// and of every schedule offset, so each nemesis still lands mid-load.
func quick(t *testing.T, name string) scenario {
	t.Helper()
	for _, sc := range catalog() {
		if sc.name == name {
			sc.load.ops /= 4
			sc.load.blobEvery /= 4
			for i := range sc.nemesis {
				sc.nemesis[i].at /= 4
			}
			return sc
		}
	}
	t.Fatalf("no scenario %q in the catalog", name)
	return scenario{}
}

func TestCatalogScenariosPass(t *testing.T) {
	for _, sc := range catalog() {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc := quick(t, sc.name)
			verdicts, err := runScenario(io.Discard, sc, 1, t.TempDir())
			for _, v := range verdicts {
				if !v.Pass {
					t.Errorf("%s", v)
				}
			}
			if err != nil && verdicts == nil {
				t.Fatal(err)
			}
			if want := 3 + len(sc.checks); len(verdicts) != want {
				t.Errorf("%d verdicts, want %d", len(verdicts), want)
			}
		})
	}
}

// TestCrashWithoutReplicationLosesAckedWrites is the contrast the crash
// scenario is read against: at R=1 the killed snode takes the only copy
// of its partitions with it, and the loss verdict must say which key.
func TestCrashWithoutReplicationLosesAckedWrites(t *testing.T) {
	t.Parallel()
	sc := quick(t, "crash")
	sc.topo.opts.Replicas = 1
	sc.convergeIn = time.Second // only the loss verdict is under test
	verdicts, err := runScenario(io.Discard, sc, 1, t.TempDir())
	if len(verdicts) == 0 {
		t.Fatalf("run did not reach its verdicts: %v", err)
	}
	loss := verdicts[0]
	if err == nil || loss.Name != "no-acked-write-loss" || loss.Pass || !strings.Contains(loss.Detail, `key "w`) {
		t.Fatalf("R=1 crash: err %v, loss verdict %s; want a failure naming a key", err, loss)
	}
}

// TestScenarioReplaysFromSeed runs one scenario twice with one seed: the
// printed schedule and key-stream fingerprint must match line for line.
func TestScenarioReplaysFromSeed(t *testing.T) {
	t.Parallel()
	replay := func() []string {
		var out bytes.Buffer
		if _, err := runScenario(&out, quick(t, "partition-kill"), 7, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "  t=") || strings.Contains(l, "fingerprint") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	first, second := replay(), replay()
	if len(first) != 4 || strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("seed 7 printed\n%s\nthen\n%s", strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}
