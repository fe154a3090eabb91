// Package analysis is dbdht's project-invariant analyzer suite: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// driver model (the container this repo builds in has no module proxy, so
// the suite is built on go/ast + go/types alone).  It keeps only the
// invariants that neither the type system nor a test can check:
//
//   - lockguard: struct fields annotated "guarded by <mutex>" are only
//     accessed with that mutex held.
//   - tracectx:  trace/context parameters are forwarded, never dropped,
//     on RPC paths.
//
// The suite runs via cmd/dbdhtlint and TestRepoInvariantsClean.
// There is no way to silence a finding: it is fixed by restructuring the
// code it points at.  See docs/INVARIANTS.md for the catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
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

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers executes the given analyzers over one loaded package and
// returns their diagnostics in position order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
		diags = append(diags, pass.diagnostics...)
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
	return []*Analyzer{LockGuard, TraceCtx}
}
