package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dbdht"
)

// TestFlagTableDocumented: the flags dhtd registers are exactly the rows
// of the "dhtd flags" table in docs/OPERATIONS.md.
func TestFlagTableDocumented(t *testing.T) {
	fs := flag.NewFlagSet("dhtd", flag.ContinueOnError)
	registerFlags(fs, &dbdht.ClusterOptions{}, &daemon{})
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\n## dhtd flags\n")
	if !ok {
		t.Fatal("docs/OPERATIONS.md has no dhtd flags section")
	}
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		row, ok := strings.CutPrefix(line, "| `-")
		if !ok {
			if len(documented) > 0 {
				break // the table has ended
			}
			continue
		}
		name, _, _ := strings.Cut(row, "`")
		documented = append(documented, name)
	}
	for _, f := range registered {
		if !slices.Contains(documented, f) {
			t.Errorf("-%s is registered but missing from docs/OPERATIONS.md", f)
		}
	}
	for _, f := range documented {
		if !slices.Contains(registered, f) {
			t.Errorf("-%s is in docs/OPERATIONS.md but not registered", f)
		}
	}
}
