package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRepoInvariantsClean runs the full analyzer suite over the real
// module, so `go test ./...` — not just the CI analyze job — fails when a
// guarded field is accessed bare or a trace context is dropped.
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

// TestTypedAtomicsOnly: no non-test file of the repo calls a function of
// package sync/atomic (atomic.AddInt64(&s.n, 1), atomic.LoadUint64, …).
// Shared counters are atomic.Int64 and friends, whose every access is
// atomic by construction, so a plain s.n++ beside an atomic add cannot
// be written.
func TestTypedAtomicsOnly(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.ExpandPatterns(loader.ModuleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != "sync/atomic" {
					continue
				}
				name := "atomic"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				ast.Inspect(f, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
								t.Errorf("%s: %s.%s: use a typed atomic (atomic.Int64, …) instead", fset.Position(call.Pos()), name, sel.Sel.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
}
