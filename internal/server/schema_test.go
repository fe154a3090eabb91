package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestBodiesDeclaredOnlyInAPI: no non-test file of the server or the Go
// client declares a struct field with a json tag.  Every /v1 body lives in
// internal/api, so a second copy of one — the copy that drifts — cannot
// come back.
func TestBodiesDeclaredOnlyInAPI(t *testing.T) {
	for _, dir := range []string{".", filepath.Join("..", "..", "client")} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if field, ok := n.(*ast.Field); ok && field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
					t.Errorf("%s: a json-tagged field; declare HTTP bodies in internal/api", fset.Position(field.Pos()))
				}
				return true
			})
		}
	}
}

// TestRouteTableDocumented: the routes New registers are exactly the rows
// of the HTTP API table in docs/OPERATIONS.md, where a row may join
// methods with "/" ("PUT/GET/DELETE /v1/kv/{key}").
func TestRouteTableDocumented(t *testing.T) {
	var served []string
	for pattern := range New(nil).reqs {
		served = append(served, strings.ReplaceAll(pattern, "{key...}", "{key}"))
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## HTTP API\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no HTTP API section")
	}
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		row, ok := strings.CutPrefix(line, "| `")
		if !ok {
			if len(documented) > 0 {
				break // the table has ended
			}
			continue
		}
		route, _, _ := strings.Cut(row, "`")
		methods, path, _ := strings.Cut(route, " ")
		for _, m := range strings.Split(methods, "/") {
			documented = append(documented, m+" "+path)
		}
	}
	for _, r := range served {
		if !slices.Contains(documented, r) {
			t.Errorf("%s is served but missing from docs/OPERATIONS.md", r)
		}
	}
	for _, r := range documented {
		if !slices.Contains(served, r) {
			t.Errorf("%s is in docs/OPERATIONS.md but not served", r)
		}
	}
}
