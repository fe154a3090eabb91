package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoInvariantsClean runs the full analyzer suite over the real
// module, so `go test ./...` — not just the CI analyze job — fails when a
// tag constant is deleted from tags.lock, a duplicate tag lands, a
// guarded field is accessed bare, or a trace context is dropped.
func TestRepoInvariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is a few seconds; skipped under -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(cwd)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns(filepath.Dir(filepath.Dir(cwd)), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("ExpandPatterns found no packages")
	}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		diags, err := RunAnalyzers(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
