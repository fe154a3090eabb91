// Package analysistest runs analyzers against golden packages: Go files
// under <testdata>/src/<pkg> carry `// want "regexp"` comments (backtick
// quoting also works) on the exact lines where diagnostics are expected.
// A file with no want comments asserts the analyzer stays silent on it —
// the non-flagging half of every analyzer's coverage.
//
// The layout and comment syntax mirror golang.org/x/tools/go/analysis/
// analysistest so the golden files survive a future migration to the
// upstream framework unchanged.
package analysistest

import (
	"path/filepath"
	"regexp"
	"testing"

	"dbdht/internal/analysis"
)

var (
	wantRe = regexp.MustCompile(`//\s*want\s+(.+)$`)
	// One quoted expectation: `...` or "..." (with escapes).
	strRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")
)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	src     string
	matched bool
}

// Run loads each named package from <testdata>/src and checks the
// analyzer's diagnostics against the package's want comments, both ways:
// every diagnostic needs a matching expectation and every expectation
// needs a matching diagnostic.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkgName := range pkgs {
		loader, err := analysis.NewLoader(src)
		if err != nil {
			t.Fatal(err)
		}
		loader.ExtraRoot = src
		pkg, err := loader.LoadDir(filepath.Join(src, pkgName))
		if err != nil {
			t.Fatalf("loading %s: %v", pkgName, err)
		}
		diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgName, err)
		}
		expects := collectWants(t, pkg)
		for _, d := range diags {
			matched := false
			for _, e := range expects {
				if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
					continue
				}
				if e.re.MatchString(d.Message) {
					e.matched = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
			}
		}
		for _, e := range expects {
			if !e.matched {
				t.Errorf("%s:%d: no diagnostic matched %q", e.file, e.line, e.src)
			}
		}
	}
}

func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, sm := range strRe.FindAllStringSubmatch(m[1], -1) {
					text := sm[1]
					if text == "" {
						text = sm[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, text, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, src: text})
				}
			}
		}
	}
	return out
}
