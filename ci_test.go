package dbdht_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests: every entry of every `-run '…'` pattern in
// the CI workflow, split on `|`, matches some test function outside
// bench/, so a renamed or deleted test cannot silently drop out of a
// repeated or race-detector step.  '^$', which runs no test on purpose
// (the fuzz steps), is the one exception.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	testFunc := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	var tests []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			tests = append(tests, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllStringSubmatch(string(ci), -1)
	if len(patterns) == 0 {
		t.Fatal("ci.yml has no -run pattern")
	}
	for _, m := range patterns {
		for _, entry := range strings.Split(m[1], "|") {
			if entry == "^$" {
				continue
			}
			re, err := regexp.Compile(entry)
			if err != nil {
				t.Errorf("ci.yml: -run entry %q: %v", entry, err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("ci.yml: -run entry %q matches no func Test… outside bench/", entry)
			}
		}
	}
}
