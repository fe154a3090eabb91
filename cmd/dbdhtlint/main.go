// dbdhtlint runs the dbdht project-invariant analyzer suite
// (internal/analysis: wiretag, lockguard, atomicfield, tracectx).
//
// Standalone, over source (no build cache needed):
//
//	dbdhtlint [-only a,b] [packages]      # default ./...
//
// As a vet tool, over the build graph (uses go vet's export data, so
// cross-package types come from the compiler, not from source):
//
//	go vet -vettool=$(pwd)/bin/dbdhtlint ./...
//
// Exit status: 0 clean, 1 findings (standalone), 2 findings (vet
// protocol), 3 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dbdht/internal/analysis"
)

func main() {
	// The go vet driver probes its -vettool with -V=full (version for the
	// build cache key) and -flags (supported flags, as JSON), then invokes
	// it once per package with a single *.cfg argument.
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// A "devel" version line must end in a buildID= field or the
			// go command rejects the tool.
			fmt.Printf("%s version devel buildID=dbdht-invariants-suite\n", filepath.Base(os.Args[0]))
			return
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(runVet(arg))
		}
	}
	os.Exit(runStandalone())
}

func runStandalone() int {
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

// vetConfig is the subset of the go vet unit config this tool reads (the
// same JSON shape x/tools' unitchecker consumes).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dbdhtlint: parsing %s: %v\n", cfgPath, err)
		return 3
	}
	// The tool exports no facts, so downstream units never need real vetx
	// content — but the driver requires the file to exist.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}
	// Test variants ("p [p.test]", "p_test [p.test]") re-run the same
	// production sources plus _test.go files; the invariants live in
	// production code only, so analyze the pure unit and skip variants.
	if strings.Contains(cfg.ImportPath, " [") || strings.HasSuffix(cfg.ImportPath, ".test") {
		writeVetx()
		return 0
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
			return 3
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		writeVetx()
		return 0
	}

	// Resolve imports through the compiler's export data, exactly as the
	// driver built it: source path -> canonical path -> package file.
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: cfg.GoVersion,
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return 0
		}
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}

	lockPath := ""
	if l, lerr := analysis.NewLoader(cfg.Dir); lerr == nil {
		lockPath = l.TagsLockPath
	}
	pkg := &analysis.Package{
		Path:         cfg.ImportPath,
		Dir:          cfg.Dir,
		Fset:         fset,
		Files:        files,
		Types:        tpkg,
		Info:         info,
		TagsLockPath: lockPath,
	}
	diags, err := analysis.RunAnalyzers(pkg, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbdhtlint:", err)
		return 3
	}
	writeVetx()
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
		return 2
	}
	return 0
}
