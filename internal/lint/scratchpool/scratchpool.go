// Package scratchpool protects sync.Pool scratch-buffer discipline (in
// this module, the shrink's releasePool in internal/placement):
//
//  1. A raw slice handed to Pool.Put must have its length reset first
//     (`buf = buf[:0]` or `Put(buf[:0])`), otherwise the next Get
//     observes stale elements — data corruption that only shows under
//     pool reuse, which the race detector cannot see.
//  2. A value obtained from Pool.Get must not be retained beyond the
//     call: storing it into a struct field, package variable, map/slice
//     element, or sending it over a channel aliases a buffer that a later
//     Put hands to an unrelated goroutine. Returning a pooled value to
//     the caller is allowed, because ownership transfers with the
//     return.
package scratchpool

import (
	"go/ast"
	"go/token"
	"go/types"

	"affinitycluster/internal/lint/analysis"
)

// Analyzer is the scratchpool rule.
var Analyzer = &analysis.Analyzer{
	Name: "scratchpool",
	Doc: "flag sync.Pool.Put of slices without a length reset and pooled " +
		"buffers retained in fields, globals, collections, or channels",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	pass.Preorder(func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		checkPuts(pass, body)
		checkRetention(pass, body)
		return true
	})
	return nil, nil
}

// poolMethod reports whether call is (*sync.Pool).<name>.
func poolMethod(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil
}

// checkPuts enforces the length-reset rule for slice-typed Put arguments.
func checkPuts(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested function literals get their own top-level visit.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !poolMethod(pass, call, "Put") || len(call.Args) != 1 {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		// &x where x is a slice: the pointer indirection is the
		// recommended shape (avoids the interface allocation), but the
		// pointee still needs its length reset.
		if u, ok := arg.(*ast.UnaryExpr); ok {
			arg = ast.Unparen(u.X)
		}
		if _, ok := arg.(*ast.SliceExpr); ok {
			// Put(buf[:0]) resets inline.
			return true
		}
		t := pass.TypeOf(arg)
		if t == nil {
			return true
		}
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if _, ok := t.Underlying().(*types.Slice); !ok {
			return true
		}
		dest := types.ExprString(arg)
		if !resetBefore(body, call.Pos(), dest) {
			pass.Reportf(call.Pos(), "slice %s returned to sync.Pool without a length reset (%s = %s[:0])", dest, dest, dest)
		}
		return true
	})
}

// resetBefore reports whether `dest = dest[:0]` (or a re-slice of dest to
// zero length) appears before pos in the function body.
func resetBefore(body *ast.BlockStmt, pos token.Pos, dest string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= pos {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) || types.ExprString(lhs) != dest {
				continue
			}
			if sl, ok := ast.Unparen(as.Rhs[i]).(*ast.SliceExpr); ok {
				if types.ExprString(sl.X) == dest && isZeroLit(sl.High) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// checkRetention flags pooled values stored anywhere that outlives the
// function call.
func checkRetention(pass *analysis.Pass, body *ast.BlockStmt) {
	pooled := map[types.Object]bool{}
	// First pass (preorder = source order): find `x := pool.Get()`,
	// `x := pool.Get().(*T)`, and aliases `b := x.(*T)` of pooled values.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isPoolGet(pass, rhs) && !isPooledAlias(pass, pooled, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.ObjectOf(id); obj != nil {
					pooled[obj] = true
				}
			}
		}
		return true
	})
	if len(pooled) == 0 {
		return
	}
	refsPooled := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pooled[pass.ObjectOf(id)] {
				hit = true
			}
			return !hit
		})
		return hit
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			if refsPooled(s.Value) {
				pass.Reportf(s.Pos(), "pooled buffer sent over a channel; it may be reused after Put")
			}
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) || !refsPooled(s.Rhs[i]) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					pass.Reportf(s.Pos(), "pooled buffer retained in field %s; it may be reused after Put", types.ExprString(l))
				case *ast.IndexExpr:
					pass.Reportf(s.Pos(), "pooled buffer retained in collection %s; it may be reused after Put", types.ExprString(l.X))
				case *ast.Ident:
					if obj := pass.ObjectOf(l); obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(s.Pos(), "pooled buffer retained in package variable %s; it may be reused after Put", l.Name)
					}
				}
			}
		}
		return true
	})
}

// isPoolGet matches pool.Get() optionally wrapped in a type assertion.
func isPoolGet(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	return poolMethod(pass, call, "Get")
}

// isPooledAlias matches `x.(*T)` (or bare x) where x is already pooled.
func isPooledAlias(pass *analysis.Pass, pooled map[types.Object]bool, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && pooled[pass.ObjectOf(id)]
}
