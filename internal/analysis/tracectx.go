package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TraceCtx enforces trace/context propagation discipline on RPC paths:
//
//  1. a named trace parameter (transport.TraceContext) or context.Context
//     parameter that the function never uses is a dropped context —
//     callers paid to thread it here and it dies on the floor (this is
//     exactly how PR 6's span trees develop holes);
//  2. a function that HAS a context.Context parameter must not mint a
//     fresh context.Background()/context.TODO() — that severs
//     cancellation and deadlines mid-path;
//  3. the send and call entry points take the trace context as a required
//     argument, so an untraced hop is spelled out: an explicit zero trace
//     context (an empty TraceContext{} literal, or a package-level
//     variable of that type such as cluster's untraced).  A function that
//     has a TraceContext parameter in scope and passes the explicit zero
//     next to a request message (a composite literal whose type name ends
//     in "Req") drops the trace on an RPC hop — pass the parameter;
//  4. context.Context parameters come first (matching the stdlib
//     convention, so call sites stay uniform).
var TraceCtx = &Analyzer{
	Name: "tracectx",
	Doc:  "trace and context parameters are forwarded, never dropped, on RPC paths",
	Run:  runTraceCtx,
}

func runTraceCtx(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkTraceFunc(pass, fd)
		}
	}
	return nil
}

func checkTraceFunc(pass *Pass, fd *ast.FuncDecl) {
	type ctxParam struct {
		name  *ast.Ident
		obj   types.Object
		trace bool // transport.TraceContext (vs context.Context)
	}
	var params []ctxParam
	leadingCtx := true // only ctx/trace params seen so far
	if fd.Type.Params != nil {
		for _, fl := range fd.Type.Params.List {
			t := pass.Info.TypeOf(fl.Type)
			isTrace := isTraceContextType(t)
			isCtx := isContextType(t)
			for _, name := range fl.Names {
				if !isTrace && !isCtx {
					leadingCtx = false
					continue
				}
				if name.Name == "_" {
					continue
				}
				// Rule 4: context.Context leads (trace params may precede it).
				if isCtx && !leadingCtx {
					pass.Reportf(name.Pos(), "context.Context parameter %s should be the function's first parameter", name.Name)
				}
				params = append(params, ctxParam{name: name, obj: pass.Info.Defs[name], trace: isTrace})
			}
		}
	}

	if len(params) == 0 {
		return
	}

	used := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.Info.Uses[id]; obj != nil {
			used[obj] = true
		}
		return true
	})
	// Rule 1: dropped parameters.
	for _, p := range params {
		if p.obj != nil && !used[p.obj] {
			kind := "context.Context"
			if p.trace {
				kind = "trace context"
			}
			pass.Reportf(p.name.Pos(), "%s parameter %s is never used — the context dies here instead of propagating; forward it or rename it _", kind, p.name.Name)
		}
	}

	hasCtx := false
	hasTrace := false
	for _, p := range params {
		if p.trace {
			hasTrace = true
		} else {
			hasCtx = true
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return true // closures inherit the outer scope's obligations
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 2: fresh root contexts beneath a context parameter.
		if hasCtx {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" &&
						(sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
						pass.Reportf(call.Pos(), "context.%s() inside a function that already has a context parameter — forward the caller's context instead of severing cancellation", sel.Sel.Name)
					}
				}
			}
		}
		// Rule 3: explicitly untraced request sends with a trace context in scope.
		if hasTrace && passesZeroTrace(pass, call) && sendsRequestLiteral(pass, call) {
			pass.Reportf(call.Pos(), "request sent via %s with an explicit zero trace context while a trace context is in scope — pass it on so the span tree survives this hop",
				types.ExprString(call.Fun))
		}
		return true
	})
}

func isTraceContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "TraceContext"
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// passesZeroTrace reports whether one of the call's arguments is an
// explicit zero trace context: an empty TraceContext{} literal, or a
// package-level variable of that type (which cannot be the caller's).
func passesZeroTrace(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if !isTraceContextType(pass.Info.TypeOf(arg)) {
			continue
		}
		switch e := arg.(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 {
				return true
			}
		case *ast.Ident:
			if v, ok := pass.Info.Uses[e].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
				return true
			}
		}
	}
	return false
}

// sendsRequestLiteral reports whether any argument is a composite
// literal of a message type whose name ends in "Req" (the repo's request
// naming convention) or a closure returning one.
func sendsRequestLiteral(pass *Pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			cl, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(cl)
			if named, ok := t.(*types.Named); ok && strings.HasSuffix(named.Obj().Name(), "Req") {
				found = true
			}
			return true
		})
	}
	return found
}
