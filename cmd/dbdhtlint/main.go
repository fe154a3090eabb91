// dbdhtlint runs the dbdht project-invariant analyzer suite
// (internal/analysis: lockguard, tracectx) over source (no build cache
// needed):
//
//	dbdhtlint [-only a,b] [packages]      # default ./...
//
// Exit status: 0 clean, 1 findings, 3 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dbdht/internal/analysis"
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("dbdhtlint", flag.ExitOnError)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Parse(os.Args[1:])

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		for n := range keep {
			fmt.Fprintf(os.Stderr, "dbdhtlint: unknown analyzer %q\n", n)
			return 3
		}
		analyzers = sel
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}
	dirs, err := loader.ExpandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}
	findings := 0
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
			return 3
		}
		diags, err := analysis.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
			return 3
		}
		for _, d := range diags {
			rel := d.Pos
			if r, err := filepath.Rel(cwd, rel.Filename); err == nil && !strings.HasPrefix(r, "..") {
				rel.Filename = r
			}
			fmt.Printf("%s: %s: %s\n", rel, d.Analyzer, d.Message)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "dbdhtlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
