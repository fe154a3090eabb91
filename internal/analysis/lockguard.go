package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// LockGuard enforces "guarded by <mutex>" field annotations: a struct
// field whose doc or line comment contains `guarded by mu` may only be
// accessed while that sibling mutex is held on the same base expression —
// e.g. `s.vnodes` requires `s.mu.Lock()` (or a held RLock for reads)
// earlier in the function, not yet unlocked.  A field names one guard; an
// annotation naming two (`guarded by mu or rw`) is itself a finding.
//
// The analysis is intra-procedural and follows this codebase's
// conventions:
//
//   - a method whose name ends in "Locked" asserts its caller holds the
//     receiver's guard mutexes (the convention the repo already uses);
//   - a variable built from a composite literal in the same function
//     (constructors) is exempt — nothing else can see it yet — until the
//     function's first `go` statement;
//   - `go func(){...}` bodies start with no locks held; other function
//     literals inherit the locks held where they appear (they run under
//     the caller's locks, e.g. the durAppendWith journaling closures);
//   - a deferred Unlock keeps the mutex held to the end of the function.
//
// There are no other exceptions.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "fields annotated 'guarded by <mutex>' are only accessed with that mutex held",
	Run:  runLockGuard,
}

var guardedByRe = regexp.MustCompile(`guarded by ([a-zA-Z_][a-zA-Z0-9_]*)(\s+or\s+[a-zA-Z_][a-zA-Z0-9_]*)?`)

// lockState records how a mutex is held: write (Lock) or read (RLock).
type lockState struct{ write bool }

type lockGuardCtx struct {
	pass *Pass
	// guards maps an annotated field object to the name of its sibling
	// guard mutex.
	guards map[*types.Var]string
	// structMutexes maps a struct's named type to the union of guard
	// mutex names annotated on its fields (for the "Locked" convention).
	structMutexes map[*types.Named][]string
}

func runLockGuard(pass *Pass) error {
	ctx := &lockGuardCtx{
		pass:          pass,
		guards:        make(map[*types.Var]string),
		structMutexes: make(map[*types.Named][]string),
	}
	ctx.collectAnnotations()
	if len(ctx.guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(map[string]lockState)
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// The caller asserts it holds the guards of the receiver —
				// and of any annotated-struct parameter (free helpers like
				// collectDeltaLocked(bk) take the locked value as an
				// argument instead).
				seed := func(fl *ast.Field) {
					for _, name := range fl.Names {
						obj := pass.Info.Defs[name]
						if obj == nil {
							continue
						}
						if named := namedStruct(obj.Type()); named != nil {
							for _, mu := range ctx.structMutexes[named] {
								held[name.Name+"."+mu] = lockState{write: true}
							}
						}
					}
				}
				if fd.Recv != nil {
					for _, fl := range fd.Recv.List {
						seed(fl)
					}
				}
				if fd.Type.Params != nil {
					for _, fl := range fd.Type.Params.List {
						seed(fl)
					}
				}
			}
			w := &lockWalker{ctx: ctx, exempt: make(map[types.Object]bool)}
			w.walkStmts(fd.Body.List, held)
		}
	}
	return nil
}

// collectAnnotations parses `guarded by ...` field comments, validating
// that every named guard is a sibling field of mutex type.
func (ctx *lockGuardCtx) collectAnnotations() {
	for _, f := range ctx.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]*ast.Field)
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					fieldNames[name.Name] = fl
				}
			}
			var structGuards []string
			for _, fl := range st.Fields.List {
				text := ""
				if fl.Doc != nil {
					text += fl.Doc.Text()
				}
				if fl.Comment != nil {
					text += " " + fl.Comment.Text()
				}
				m := guardedByRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				g := m[1]
				if m[2] != "" {
					ctx.pass.Reportf(fl.Pos(), "guarded-by annotation names more than one mutex (%q): a field has one guard", m[0])
					continue
				}
				if gf, ok := fieldNames[g]; !ok || !isMutexField(ctx.pass, gf) {
					ctx.pass.Reportf(fl.Pos(), "guarded-by annotation names %q, which is not a sibling sync.Mutex/RWMutex field", g)
					continue
				}
				for _, name := range fl.Names {
					if obj, ok := ctx.pass.Info.Defs[name].(*types.Var); ok {
						ctx.guards[obj] = g
					}
				}
				if !slices.Contains(structGuards, g) {
					structGuards = append(structGuards, g)
				}
			}
			if len(structGuards) > 0 {
				if obj := ctx.pass.Info.Defs[ts.Name]; obj != nil {
					if named, ok := obj.Type().(*types.Named); ok {
						ctx.structMutexes[named] = structGuards
					}
				}
			}
			return true
		})
	}
}

func isMutexField(pass *Pass, fl *ast.Field) bool {
	t := pass.Info.TypeOf(fl.Type)
	return isMutexType(t)
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func namedStruct(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// lockWalker tracks held mutexes through one function body in statement
// order.
type lockWalker struct {
	ctx *lockGuardCtx
	// exempt holds constructor-local objects (assigned from composite
	// literals in this function): accesses through them are unchecked.
	exempt map[types.Object]bool
}

func copyHeld(h map[string]lockState) map[string]lockState {
	c := make(map[string]lockState, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// walkStmts processes stmts in order, mutating held.  Returns true when
// the sequence definitely terminates the enclosing flow (return, branch,
// panic).
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[string]lockState) bool {
	terminated := false
	for _, s := range stmts {
		if w.walkStmt(s, held) {
			terminated = true
		}
	}
	return terminated
}

// runBranch analyzes a conditional body on a copy of held; when the body
// falls through (does not terminate), its unlocks propagate to the outer
// set — conditional Locks never do.
func (w *lockWalker) runBranch(body []ast.Stmt, held map[string]lockState) {
	inner := copyHeld(held)
	terminated := w.walkStmts(body, inner)
	if terminated {
		return
	}
	for k := range held {
		if _, still := inner[k]; !still {
			delete(held, k)
		}
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, held map[string]lockState) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		if w.applyLockOp(s.X, held) {
			return false
		}
		if isPanicCall(s.X) {
			w.checkExpr(s.X, false, held)
			return true
		}
		w.checkExpr(s.X, false, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.checkExpr(r, false, held)
		}
		if s.Tok == token.DEFINE {
			w.noteConstructors(s)
		}
		for _, l := range s.Lhs {
			if _, ok := l.(*ast.Ident); ok && s.Tok == token.DEFINE {
				continue
			}
			w.checkWriteTarget(l, held)
		}
	case *ast.IncDecStmt:
		w.checkWriteTarget(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, false, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the mutex held to the end: drop the
		// Unlock instead of applying it.  Deferred closures run at return
		// time, when the locks of this point may be long gone.
		if _, op, ok := w.lockOpOf(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return false
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(fl.Body.List, make(map[string]lockState))
			return false
		}
		for _, a := range s.Call.Args {
			w.checkExpr(a, false, held)
		}
	case *ast.GoStmt:
		// A spawned goroutine holds nothing, whatever the spawner holds.
		// It also ends the constructor exemption: once any goroutine is
		// launched, a "fresh" value may be shared (the newSnode pattern —
		// building a struct, starting its actor loop, then reading its
		// fields unlocked — is exactly the race this catches).
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			for _, a := range s.Call.Args {
				w.checkExpr(a, false, held)
			}
			w.walkStmts(fl.Body.List, make(map[string]lockState))
			clear(w.exempt)
			return false
		}
		w.checkExpr(s.Call, false, held)
		clear(w.exempt)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, false, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		w.walkStmt(s.Init, held)
		w.checkExpr(s.Cond, false, held)
		w.runBranch(s.Body.List, held)
		if s.Else != nil {
			w.runBranch([]ast.Stmt{s.Else}, held)
		}
	case *ast.ForStmt:
		w.walkStmt(s.Init, held)
		if s.Cond != nil {
			w.checkExpr(s.Cond, false, held)
		}
		body := s.Body.List
		if s.Post != nil {
			body = append(append([]ast.Stmt(nil), body...), s.Post)
		}
		w.runBranch(body, held)
	case *ast.RangeStmt:
		w.checkExpr(s.X, false, held)
		w.runBranch(s.Body.List, held)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init, held)
		if s.Tag != nil {
			w.checkExpr(s.Tag, false, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.checkExpr(e, false, held)
			}
			w.runBranch(cc.Body, held)
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init, held)
		w.walkStmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.runBranch(cc.Body, held)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm, held)
			}
			w.runBranch(cc.Body, held)
		}
	case *ast.SendStmt:
		w.checkExpr(s.Chan, false, held)
		w.checkExpr(s.Value, false, held)
	default:
		// Anything else (empty stmt, etc.): nothing to track.
	}
	return false
}

// noteConstructors records variables defined from composite literals —
// fresh values no other goroutine can reach.
func (w *lockWalker) noteConstructors(s *ast.AssignStmt) {
	for i, l := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		r := ast.Unparen(s.Rhs[i])
		if u, ok := r.(*ast.UnaryExpr); ok && u.Op == token.AND {
			r = ast.Unparen(u.X)
		}
		if _, ok := r.(*ast.CompositeLit); ok {
			if obj := w.ctx.pass.Info.Defs[id]; obj != nil {
				w.exempt[obj] = true
			}
		}
	}
}

// applyLockOp updates held if e is a mutex Lock/Unlock call; reports
// true when it was one.
func (w *lockWalker) applyLockOp(e ast.Expr, held map[string]lockState) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	key, op, ok := w.lockOpOf(call)
	if !ok {
		return false
	}
	switch op {
	case "Lock", "TryLock":
		held[key] = lockState{write: true}
	case "RLock", "TryRLock":
		if _, already := held[key]; !already {
			held[key] = lockState{write: false}
		}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return true
}

// lockOpOf recognizes `<base>.<mutexField>.Lock()` shapes and returns the
// held-set key "<base>.<mutexField>" plus the operation name.
func (w *lockWalker) lockOpOf(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	if !isMutexType(w.ctx.pass.Info.TypeOf(sel.X)) {
		return "", "", false
	}
	return types.ExprString(sel.X), op, true
}

// checkWriteTarget checks an assignment target: the outermost annotated
// selector needs the guard held for writing; everything beneath is a read.
func (w *lockWalker) checkWriteTarget(l ast.Expr, held map[string]lockState) {
	switch l := ast.Unparen(l).(type) {
	case *ast.SelectorExpr:
		w.checkSelector(l, true, held)
		w.checkExpr(l.X, false, held)
	case *ast.IndexExpr:
		// m[k] = v writes the map field itself.
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok {
			w.checkSelector(sel, true, held)
			w.checkExpr(sel.X, false, held)
		} else {
			w.checkExpr(l.X, false, held)
		}
		w.checkExpr(l.Index, false, held)
	case *ast.StarExpr:
		w.checkExpr(l.X, false, held)
	case *ast.Ident:
		// Plain locals: nothing guarded.
	default:
		w.checkExpr(l, false, held)
	}
}

// checkExpr walks an expression, checking every annotated-field access
// as a read (write targets go through checkWriteTarget).
func (w *lockWalker) checkExpr(e ast.Expr, write bool, held map[string]lockState) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		w.checkSelector(e, write, held)
		w.checkExpr(e.X, false, held)
	case *ast.FuncLit:
		// Non-go, non-defer literals run where they appear (journaling
		// closures under the caller's locks): inherit the held set.
		w.walkStmts(e.Body.List, copyHeld(held))
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "delete" && len(e.Args) == 2 {
			w.checkWriteTarget(e.Args[0], held)
			w.checkExpr(e.Args[1], false, held)
			return
		}
		w.checkExpr(e.Fun, false, held)
		for _, a := range e.Args {
			w.checkExpr(a, false, held)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// Taking the address hands out mutable access.
			if sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr); ok {
				w.checkSelector(sel, true, held)
				w.checkExpr(sel.X, false, held)
				return
			}
		}
		w.checkExpr(e.X, write, held)
	case *ast.BinaryExpr:
		w.checkExpr(e.X, false, held)
		w.checkExpr(e.Y, false, held)
	case *ast.IndexExpr:
		w.checkExpr(e.X, write, held)
		w.checkExpr(e.Index, false, held)
	case *ast.SliceExpr:
		w.checkExpr(e.X, write, held)
		w.checkExpr(e.Low, false, held)
		w.checkExpr(e.High, false, held)
		w.checkExpr(e.Max, false, held)
	case *ast.StarExpr:
		w.checkExpr(e.X, write, held)
	case *ast.ParenExpr:
		w.checkExpr(e.X, write, held)
	case *ast.TypeAssertExpr:
		w.checkExpr(e.X, false, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.checkExpr(kv.Value, false, held)
				continue
			}
			w.checkExpr(el, false, held)
		}
	case *ast.KeyValueExpr:
		w.checkExpr(e.Value, false, held)
	default:
		// Idents, literals, types: nothing to check.
	}
}

// checkSelector reports an annotated-field access without its guard.
func (w *lockWalker) checkSelector(sel *ast.SelectorExpr, write bool, held map[string]lockState) {
	selection, ok := w.ctx.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok {
		return
	}
	guard, annotated := w.ctx.guards[field]
	if !annotated {
		return
	}
	// Constructor-local bases are unshared.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := w.ctx.pass.Info.Uses[id]; obj != nil && w.exempt[obj] {
			return
		}
	}
	base := types.ExprString(sel.X)
	if st, heldNow := held[base+"."+guard]; heldNow && (st.write || !write) {
		return
	}
	verb := "read"
	if write {
		verb = "written"
	}
	w.ctx.pass.Reportf(sel.Sel.Pos(), "%s.%s %s without %s.%s held (field is 'guarded by %s')",
		base, field.Name(), verb, base, guard, guard)
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
