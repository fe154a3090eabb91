package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// WireTag enforces the frozen wire/WAL tag number space (docs/WIRE.md):
//
//   - every `wireTag*` / `walTag*` constant has a unique value — the two
//     families share one number space, so a WAL record tag can never
//     collide with a wire message tag;
//   - every tag is registered in internal/analysis/tags.lock with exactly
//     its current value, so reusing or renumbering a tag requires an
//     explicit, reviewable lockfile edit (and deleting a lockfile entry
//     while the constant exists fails the build);
//   - a `retired` lockfile entry reserves its number forever;
//   - every tag has both an encoder — a method returning it, WireTag()
//     for a message, walTag() for a journal record — and a decoder: a row
//     of its table, an element {tag, decoder} of a slice literal (the
//     message table init registers, the record table replay walks).
var WireTag = &Analyzer{
	Name: "wiretag",
	Doc:  "wire/WAL tags are unique, lockfile-registered, and fully wired (encoder + decoder)",
	Run:  runWireTag,
}

type tagConst struct {
	name  string
	value uint64
	pos   token.Pos
}

func runWireTag(pass *Pass) error {
	var tags []tagConst
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "wireTag") && !strings.HasPrefix(name.Name, "walTag") {
						continue
					}
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					cv := obj.(interface{ Val() constant.Value }).Val()
					v, ok := constant.Uint64Val(cv)
					if !ok {
						pass.Reportf(name.Pos(), "tag constant %s is not an unsigned integer", name.Name)
						continue
					}
					tags = append(tags, tagConst{name: name.Name, value: v, pos: name.Pos()})
				}
			}
		}
	}
	if len(tags) == 0 {
		return nil // not a tag-bearing package
	}

	// Uniqueness across the shared number space.
	byValue := make(map[uint64]tagConst)
	sorted := append([]tagConst(nil), tags...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].pos < sorted[j].pos })
	for _, t := range sorted {
		if prev, dup := byValue[t.value]; dup {
			pass.Reportf(t.pos, "tag %s reuses value %d already held by %s — the wire/WAL tag space is frozen; pick the next free number and register it in tags.lock",
				t.name, t.value, prev.name)
			continue
		}
		byValue[t.value] = t
	}

	// Lockfile reconciliation.
	lockPath := pass.TagsLockPath
	if lockPath == "" {
		lockPath = filepath.Join(pass.Dir, "tags.lock")
	}
	lock, lockOrder, err := parseTagsLock(lockPath)
	if err != nil {
		pass.Reportf(pass.Files[0].Package, "cannot read tag registry: %v", err)
		return nil
	}
	rel := lockPath
	if r, err := filepath.Rel(pass.Dir, lockPath); err == nil && !strings.HasPrefix(r, "..") {
		rel = r
	}
	lockByValue := make(map[uint64]string)
	for _, name := range lockOrder {
		v := lock[name]
		if prev, dup := lockByValue[v]; dup && name != "retired" && prev != "retired" {
			pass.Reportf(pass.Files[0].Package, "%s: entries %s and %s both claim value %d", rel, prev, name, v)
		}
		lockByValue[v] = name
	}
	codeByName := make(map[string]tagConst, len(tags))
	for _, t := range tags {
		codeByName[t.name] = t
	}
	for _, t := range tags {
		locked, ok := lock[t.name]
		switch {
		case !ok:
			if holder, taken := lockByValue[t.value]; taken && holder != t.name {
				pass.Reportf(t.pos, "tag %s = %d collides with registry entry %s = %d in %s — the value is burned; allocate a fresh one",
					t.name, t.value, holder, t.value, rel)
			} else {
				pass.Reportf(t.pos, "tag %s = %d is not registered in %s — append it (tags are append-only)", t.name, t.value, rel)
			}
		case locked != t.value:
			pass.Reportf(t.pos, "tag %s = %d disagrees with registry (%s says %d) — tags are never renumbered", t.name, t.value, rel, locked)
		}
	}
	for _, name := range lockOrder {
		if name == "retired" {
			continue
		}
		if _, ok := codeByName[name]; !ok {
			pass.Reportf(pass.Files[0].Package,
				"registry entry %s = %d in %s has no constant — tags are frozen forever; rename the entry to \"retired\" instead of deleting it",
				name, lock[name], rel)
		}
	}

	// Encoder/decoder completeness.
	enc, dec := tagUsageSides(pass)
	for _, t := range tags {
		kind, method, table := "wire", "WireTag", "message"
		if strings.HasPrefix(t.name, "walTag") {
			kind, method, table = "WAL", "walTag", "record"
		}
		if !enc[t.name] {
			pass.Reportf(t.pos, "%s tag %s has no encoder: no %s() method returns it", kind, t.name, method)
		}
		if !dec[t.name] {
			pass.Reportf(t.pos, "%s tag %s has no decoder: no row of the %s table lists it", kind, t.name, table)
		}
	}
	return nil
}

// tagUsageSides finds each tag's encoder side — the return expression of
// a WireTag or walTag method — and its decoder side: the first field of a
// row of the message or record table.
func tagUsageSides(pass *Pass) (enc, dec map[string]bool) {
	enc = make(map[string]bool)
	dec = make(map[string]bool)
	tagName := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		id, ok := e.(*ast.Ident)
		if !ok || (!strings.HasPrefix(id.Name, "wireTag") && !strings.HasPrefix(id.Name, "walTag")) {
			return "", false
		}
		return id.Name, true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				// A table row: an untyped {tag, decoder} element of an
				// enclosing slice literal.
				for _, elt := range n.Elts {
					if row, ok := elt.(*ast.CompositeLit); ok && row.Type == nil && len(row.Elts) == 2 {
						if name, ok := tagName(row.Elts[0]); ok {
							dec[name] = true
						}
					}
				}
			case *ast.FuncDecl:
				if (n.Name.Name == "WireTag" || n.Name.Name == "walTag") && n.Recv != nil && n.Body != nil {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						ret, ok := m.(*ast.ReturnStmt)
						if !ok {
							return true
						}
						for _, e := range ret.Results {
							if name, ok := tagName(e); ok {
								enc[name] = true
							}
						}
						return true
					})
					return false // tag methods are encoder-only
				}
			}
			return true
		})
	}
	return enc, dec
}

// parseTagsLock reads the registry: one `name = value` pair per line,
// `#` comments, `retired = value` reserving a burned number.
func parseTagsLock(path string) (map[string]uint64, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lock := make(map[string]uint64)
	var order []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, nil, fmt.Errorf("%s:%d: want \"name = value\", got %q", path, i+1, line)
		}
		name = strings.TrimSpace(name)
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 16)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad tag value: %v", path, i+1, err)
		}
		if _, dup := lock[name]; dup && name != "retired" {
			return nil, nil, fmt.Errorf("%s:%d: duplicate entry %s", path, i+1, name)
		}
		lock[name] = v
		order = append(order, name)
	}
	return lock, order, nil
}
