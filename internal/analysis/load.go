package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed + type-checked package, ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module from source.  It
// resolves module-local imports itself and delegates everything else to
// the toolchain's source importer, so it needs no module proxy, no
// export data and no external dependencies — the properties that let the
// analyzer suite build in a hermetic container.
type Loader struct {
	Fset      *token.FileSet
	Module    string // module path from go.mod ("" outside a module)
	ModuleDir string // directory holding go.mod
	// ExtraRoot, when set, is a GOPATH/src-style root checked before the
	// module: import "a/b" loads <ExtraRoot>/a/b.  The analysistest
	// harness points it at a testdata/src directory.
	ExtraRoot string

	std   types.Importer
	cache map[string]*Package
}

// NewLoader builds a loader rooted at the module containing dir (dir may
// be any directory inside the module; outside a module, only ExtraRoot
// and stdlib imports resolve).
func NewLoader(dir string) (*Loader, error) {
	l := &Loader{
		Fset:  token.NewFileSet(),
		cache: make(map[string]*Package),
	}
	modDir, modPath, err := findModule(dir)
	if err == nil {
		l.ModuleDir = modDir
		l.Module = modPath
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (modDir, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer over the loader's resolution order:
// ExtraRoot, then the module, then the toolchain's source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.ExtraRoot != "" {
		if dir := filepath.Join(l.ExtraRoot, filepath.FromSlash(path)); isPkgDir(dir) {
			pkg, err := l.load(path, dir)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	}
	if l.Module != "" && (path == l.Module || strings.HasPrefix(path, l.Module+"/")) {
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimPrefix(path, l.Module)))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func isPkgDir(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// LoadDir loads the package in dir (resolving its import path from the
// loader's roots; a directory outside every root loads under a synthetic
// path).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs)
	return l.load(path, abs)
}

func (l *Loader) importPathFor(abs string) string {
	if l.ExtraRoot != "" {
		if rel, err := filepath.Rel(l.ExtraRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	if l.ModuleDir != "" {
		if rel, err := filepath.Rel(l.ModuleDir, abs); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				return l.Module
			}
			return l.Module + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(abs)
}

// load parses and type-checks one package directory (memoized by import
// path).  Test files (_test.go) are excluded: the invariants the suite
// enforces live in production sources.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, nil
	}
	l.cache[path] = nil // cycle guard
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		// Only the files the compiler would build here: a package may keep
		// per-platform variants of one function (internal/wal's fdatasync).
		if match, err := build.Default.MatchFile(dir, n); err != nil || !match {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.cache[path] = pkg
	return pkg, nil
}

// ExpandPatterns resolves go-tool style package patterns ("./...", "./x",
// "dir") into package directories, skipping testdata, hidden directories
// and directories without Go sources.
func (l *Loader) ExpandPatterns(cwd string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] && isPkgDir(d) {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(p)
			if p != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
