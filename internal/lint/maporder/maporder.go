// Package maporder flags `range` statements over maps whose iteration
// order escapes into order-sensitive sinks — append-built slices that are
// never sorted, string/byte writers, channels, JSON encoders, and
// floating-point accumulators. Go randomizes map iteration order per run,
// so any such leak in an export path (report, obs, experiments) breaks
// the same-seed ⇒ byte-identical output contract the paper comparison
// rests on.
//
// The check is a single forward taint pass per loop body: the loop
// variables are tainted, assignments propagate taint, and sinks fire on
// tainted values. An append sink is forgiven when the destination slice
// is later passed to a sort.*/slices.* sort call inside the same
// function (the collect-then-sort idiom of obs.sortedKeys).
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"affinitycluster/internal/lint/analysis"
)

// Analyzer is the maporder rule.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose order escapes into slices, writers, channels, " +
		"JSON output, or float accumulators without an intervening sort",
	Run: run,
}

// writeMethods are receiver methods that emit bytes in call order.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true, // json.Encoder / gob.Encoder style
}

// fmtWriters are fmt package functions that emit to a stream.
var fmtWriters = map[string]bool{
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
}

// sortCalls recognizes the sanctioned sort entry points by package path.
var sortCalls = map[string]bool{"sort": true, "slices": true}

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
		checkFunc(pass, body)
		return true
	})
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Nested function literals are delivered to checkFunc by their own
		// Preorder visit; descending here would double-report them.
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.TypeOf(rng.X); t == nil || !isMap(t) {
			return true
		}
		checkMapRange(pass, body, rng)
		return true
	})
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// pendingAppend is an append of tainted data awaiting a later sort.
type pendingAppend struct {
	dest string // canonical expression string of the destination
	pos  token.Pos
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	tainted := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		// Bare `for range m` bodies see neither key nor value; nothing
		// order-dependent can leak.
		return
	}

	isTainted := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && tainted[pass.ObjectOf(id)] {
				found = true
			}
			return !found
		})
		return found
	}

	var pending []pendingAppend
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			if isTainted(s.Value) {
				pass.Reportf(s.Pos(), "map iteration order escapes into a channel send")
			}
		case *ast.AssignStmt:
			checkAssign(pass, s, tainted, isTainted, &pending)
		case *ast.CallExpr:
			checkCall(pass, s, isTainted)
		}
		return true
	})

	for _, p := range pending {
		if !sortedAfter(pass, fnBody, rng.End(), p.dest) {
			pass.Reportf(p.pos, "map iteration order escapes into slice %s, which is never sorted in this function", p.dest)
		}
	}
}

// checkAssign propagates taint through assignments, records tainted
// appends, and flags floating-point accumulation over map order.
func checkAssign(pass *analysis.Pass, s *ast.AssignStmt, tainted map[types.Object]bool, isTainted func(ast.Expr) bool, pending *[]pendingAppend) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		// Only a loop-invariant accumulator sees every element in map
		// order; a tainted destination (e.g. v.field -= x inside the
		// loop) touches distinct per-entry storage and commutes.
		if len(s.Lhs) == 1 && isTainted(s.Rhs[0]) && !isTainted(s.Lhs[0]) && isFloat(pass.TypeOf(s.Lhs[0])) {
			pass.Reportf(s.Pos(), "floating-point accumulation over map iteration order is not associative; accumulate over sorted keys")
		}
		return
	}
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
			taintedArg := false
			for _, a := range call.Args[1:] {
				if isTainted(a) {
					taintedArg = true
					break
				}
			}
			if taintedArg {
				*pending = append(*pending, pendingAppend{dest: types.ExprString(s.Lhs[i]), pos: s.Pos()})
			}
			continue
		}
		if isTainted(rhs) {
			if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.ObjectOf(id); obj != nil {
					tainted[obj] = true
				}
			}
		}
	}
}

// checkCall flags order-sensitive emit calls with tainted arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, isTainted func(ast.Expr) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	anyTainted := false
	for _, a := range call.Args {
		if isTainted(a) {
			anyTainted = true
			break
		}
	}
	if !anyTainted {
		return
	}
	if sig.Recv() != nil && writeMethods[fn.Name()] {
		pass.Reportf(call.Pos(), "map iteration order escapes through %s.%s", types.ExprString(sel.X), fn.Name())
		return
	}
	if sig.Recv() == nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtWriters[fn.Name()] {
		pass.Reportf(call.Pos(), "map iteration order escapes through fmt.%s", fn.Name())
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, ok = pass.ObjectOf(id).(*types.Builtin)
	return ok && len(call.Args) >= 2
}

// sortedAfter reports whether some call after pos in the function passes
// dest to a sort.* or slices.* sorting function.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, pos token.Pos, dest string) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil || !sortCalls[fn.Pkg().Path()] {
			return true
		}
		name := fn.Name()
		isSortName := strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "Slice") ||
			name == "Strings" || name == "Ints" || name == "Float64s" || name == "Stable"
		if !isSortName {
			return true
		}
		for _, a := range call.Args {
			if types.ExprString(a) == dest {
				found = true
			}
		}
		return true
	})
	return found
}
