package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the context-threading contract on library code: a
// request that reaches a deadline or a dropped client must stop
// burning simulator cycles, which only works if cancellation flows
// unbroken from the HTTP handler down to the cycle loop.  Three rules,
// outside package main and test files:
//
//  1. context.Context, where a function takes one, is the first
//     parameter (the convention every caller and wrapper relies on);
//  2. context.Background()/context.TODO() are banned — they silently
//     sever the cancellation chain.  The nil-guard idiom
//     (`if ctx == nil { ctx = context.Background() }`) is the one
//     recognized exception; cancellation roots belong in package main;
//  3. passing a literal nil where a callee expects a context is
//     banned — use the caller's ctx.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "library code must thread context.Context as the first " +
		"parameter and never sever cancellation with context.Background/" +
		"TODO or a nil context (roots belong in package main)",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.inTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkCtxFirst(pass, fd)
			if fd.Body == nil {
				continue
			}
			checkCtxCalls(pass, fd)
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// checkCtxFirst enforces rule 1: a context parameter anywhere but
// position 0.
func checkCtxFirst(pass *Pass, fd *ast.FuncDecl) {
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		tv, ok := pass.Info.Types[field.Type]
		if ok && isContextType(tv.Type) && idx > 0 {
			pass.Reportf(field.Pos(), "%s: context.Context must be the first parameter (found at position %d)", fd.Name.Name, idx+1)
			return
		}
		idx += n
	}
}

// checkCtxCalls enforces rules 2 and 3 inside one function body.
func checkCtxCalls(pass *Pass, fd *ast.FuncDecl) {
	nilGuarded := nilGuardCalls(fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 2: context.Background()/TODO().
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
			if name := fn.Name(); name == "Background" || name == "TODO" {
				if !nilGuarded[call] {
					pass.Reportf(call.Pos(), "context.%s in library code severs the cancellation chain; "+
						"thread the caller's ctx (cancellation roots belong in package main)", name)
				}
			}
		}
		// Rule 3: a literal nil where the callee wants a context.
		if len(call.Args) > 0 && isUntypedNil(pass, call.Args[0]) {
			if sig, ok := pass.Info.Types[call.Fun].Type.(*types.Signature); ok &&
				sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) {
				pass.Reportf(call.Args[0].Pos(), "nil context passed to %s; pass the caller's ctx "+
					"(the callee's nil-guard is a migration aid, not an API)", renderCallee(call))
			}
		}
		return true
	})
}

// renderCallee names a call target for diagnostics.
func renderCallee(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return lockExprString(fun)
	}
	return "the callee"
}

// nilGuardCalls finds the Background/TODO calls that implement the
// recognized nil-guard idiom
//
//	if ctx == nil { ctx = context.Background() }
//
// — defaulting a ctx-less legacy caller inside a context-accepting
// function keeps the chain intact for every caller that does pass one.
func nilGuardCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Init != nil {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op != token.EQL {
			return true
		}
		var subject ast.Expr
		switch {
		case isNilIdent(cond.Y):
			subject = cond.X
		case isNilIdent(cond.X):
			subject = cond.Y
		default:
			return true
		}
		for _, stmt := range ifs.Body.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			if lockExprString(as.Lhs[0]) != lockExprString(subject) {
				continue
			}
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// isUntypedNil reports whether e denotes the predeclared nil (and not a
// local that happens to shadow the name).
func isUntypedNil(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return true
	}
	_, isNil := obj.(*types.Nil)
	return isNil
}
