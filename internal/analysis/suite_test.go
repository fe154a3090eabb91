package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"dbdht/internal/analysis"
	"dbdht/internal/analysis/analysistest"
)

func TestWireTag(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WireTag, "wiretagtest", "cleantest")
}

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockGuard, "lockguardtest", "cleantest")
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.AtomicField, "atomicfieldtest", "cleantest")
}

func TestTraceCtx(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.TraceCtx, "tracectxtest", "cleantest")
}

// TestFullSuiteClean runs every analyzer together over the clean golden
// package: the suite as a whole must stay silent, not just each analyzer
// in isolation.
func TestFullSuiteClean(t *testing.T) {
	diags := runOn(t, "cleantest", analysis.All())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on clean package: %s", d)
	}
}

// TestSuppression checks the //lint:dbdht policy: a justified suppression
// silences its line, an unjustified one is itself a finding and silences
// nothing, and a suppression naming a different analyzer does not apply.
func TestSuppression(t *testing.T) {
	diags := runOn(t, "suppresstest", []*analysis.Analyzer{analysis.LockGuard})
	var suppress, lockguard int
	for _, d := range diags {
		switch {
		case d.Analyzer == "suppress" && strings.Contains(d.Message, "suppression without justification"):
			suppress++
		case d.Analyzer == "lockguard" && strings.Contains(d.Message, "b.n read without b.mu held"):
			lockguard++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if suppress != 1 {
		t.Errorf("got %d unjustified-suppression findings, want 1", suppress)
	}
	if lockguard != 2 {
		t.Errorf("got %d lockguard findings, want 2 (unjustified + wrong-analyzer suppressions must not apply)", lockguard)
	}
}

func runOn(t *testing.T, pkgName string, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(src)
	if err != nil {
		t.Fatal(err)
	}
	loader.ExtraRoot = src
	loader.TagsLockPath = ""
	pkg, err := loader.LoadDir(filepath.Join(src, pkgName))
	if err != nil {
		t.Fatalf("loading %s: %v", pkgName, err)
	}
	diags, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}
