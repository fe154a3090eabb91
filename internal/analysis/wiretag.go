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
//   - every wire tag has both an encoder (a WireTag() method returning
//     it) and a decoder (a row of the message table: an element
//     {tag, decoder} of a slice literal, which init registers);
//   - every WAL tag is written by an encoder and handled by a replay
//     switch case.
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
		wire := strings.HasPrefix(t.name, "wireTag")
		if !enc[t.name] {
			if wire {
				pass.Reportf(t.pos, "wire tag %s has no encoder: no WireTag() method returns it", t.name)
			} else {
				pass.Reportf(t.pos, "WAL tag %s has no encoder: no record encoder writes it", t.name)
			}
		}
		if !dec[t.name] {
			if wire {
				pass.Reportf(t.pos, "wire tag %s has no decoder: no row of the message table lists it", t.name)
			} else {
				pass.Reportf(t.pos, "WAL tag %s has no decoder: no replay switch case handles it", t.name)
			}
		}
	}
	return nil
}

// tagUsageSides classifies every use of a tag constant as encoder-side or
// decoder-side.  Decoder side: first field of a message-table row (wire
// tags) or a switch case expression (WAL replay).  Encoder side: the
// return expression of a WireTag method (wire tags) or any other use in a
// function body (WAL record encoders write the tag as their first field).
func tagUsageSides(pass *Pass) (enc, dec map[string]bool) {
	enc = make(map[string]bool)
	dec = make(map[string]bool)
	tagName := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		// Tags may appear converted: uint64(walTagWrite).
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if _, isConv := pass.Info.Types[call.Fun]; isConv && pass.Info.Types[call.Fun].IsType() {
				e = ast.Unparen(call.Args[0])
			}
		}
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
			case *ast.CaseClause:
				for _, e := range n.List {
					if name, ok := tagName(e); ok {
						dec[name] = true
					}
				}
			case *ast.FuncDecl:
				if n.Name.Name == "WireTag" && n.Recv != nil && n.Body != nil {
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
					return false // WireTag methods are encoder-only
				}
				if n.Body != nil && strings.HasPrefix(n.Name.Name, "encode") {
					ast.Inspect(n.Body, func(m ast.Node) bool {
						if e, ok := m.(ast.Expr); ok {
							if name, ok := tagName(e); ok {
								enc[name] = true
							}
						}
						return true
					})
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
