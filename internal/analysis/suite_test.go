package analysis_test

import (
	"path/filepath"
	"testing"

	"dbdht/internal/analysis"
	"dbdht/internal/analysis/analysistest"
)

func TestLockGuard(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.LockGuard, "lockguardtest", "cleantest")
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
