// Package analysis is dbdht's project-invariant analyzer suite: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// driver model (the container this repo builds in has no module proxy, so
// the suite is built on go/ast + go/types alone).  Each Analyzer enforces
// one invariant that otherwise lives only in prose and reviewer vigilance:
//
//   - wiretag:     wire/WAL record tags are unique, registered in
//     tags.lock, and every tagged message has encoder + decoder.
//   - lockguard:   struct fields annotated "guarded by <mutex>" are only
//     accessed with that mutex held.
//   - atomicfield: a field accessed via sync/atomic anywhere is accessed
//     atomically everywhere.
//   - tracectx:    trace/context parameters are forwarded, never dropped,
//     on RPC paths.
//
// The suite runs standalone and under `go vet -vettool=` via cmd/dbdhtlint.
// Suppressions require an inline justification:
//
//	//lint:dbdht <analyzer> <why this site is exempt>
//
// placed on the offending line or the line above it.  See
// docs/INVARIANTS.md for the catalogue and the suppression policy.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.  The API mirrors
// golang.org/x/tools/go/analysis so the suite can migrate to the upstream
// framework wholesale if the toolchain ever vendors it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one package's parsed and type-checked state through one
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Dir is the directory holding the package's sources.
	Dir string
	// TagsLockPath points wiretag at its registry file.  Empty means
	// "walk up from Dir to the module root and use
	// internal/analysis/tags.lock" (resolved by the driver).
	TagsLockPath string

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a matching //lint:dbdht
// suppression covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed //lint:dbdht comment.
type suppression struct {
	file     string
	line     int // the line the suppression covers (its own line, or the next)
	analyzer string
	reason   string
}

var suppressRe = regexp.MustCompile(`^//lint:dbdht\s+([a-z]+)\s*(.*)$`)

// collectSuppressions scans a file's comments for //lint:dbdht markers.  A
// marker covers diagnostics on its own line (trailing comment) and on the
// line immediately below (a comment on its own line above the code).
func collectSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, suppression{file: pos.Filename, line: pos.Line, analyzer: m[1], reason: strings.TrimSpace(m[2])})
			}
		}
	}
	return out
}

// RunAnalyzers executes the given analyzers over one loaded package and
// returns surviving diagnostics (suppressed findings are dropped; a
// suppression with no justification is itself a finding).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sups := collectSuppressions(pkg.Fset, pkg.Files)
	var diags []Diagnostic
	for _, s := range sups {
		if s.reason == "" {
			diags = append(diags, Diagnostic{
				Pos:      token.Position{Filename: s.file, Line: s.line},
				Analyzer: "suppress",
				Message:  "suppression without justification: write //lint:dbdht <analyzer> <reason>",
			})
		}
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:     a,
			Fset:         pkg.Fset,
			Files:        pkg.Files,
			Pkg:          pkg.Types,
			Info:         pkg.Info,
			Dir:          pkg.Dir,
			TagsLockPath: pkg.TagsLockPath,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	diagLoop:
		for _, d := range pass.diagnostics {
			for _, s := range sups {
				if s.reason != "" && s.analyzer == a.Name && s.file == d.Pos.Filename &&
					(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
					continue diagLoop
				}
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{WireTag, LockGuard, AtomicField, TraceCtx}
}
