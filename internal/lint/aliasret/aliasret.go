// Package aliasret flags exported methods that hand out references into
// their receiver's unexported state — the bug class behind PR 7's
// Inventory.Clone dropping the attached tier index and the queue
// Peek/GetRequests aliasing audit: once a caller holds a slice, map, or
// pointer that is reachable from internal storage, every later mutation
// of that storage silently invalidates the caller's copy (or worse, the
// caller's writes corrupt the invariant the type maintains).
//
// The check is a per-method forward taint pass, deliberately shallow so
// its verdicts are explainable:
//
//   - selecting an unexported reference-carrying field of the receiver
//     taints the expression; indexing, slicing, dereferencing, and
//     address-taking propagate taint; so does assigning a local into
//     receiver state (the AttachTierIndex "store it, then return it"
//     shape).
//   - function and method call results are clean — the callee owns its
//     own contract (this is what lets queue.Peek return q.ordered()
//     untouched: ordered's copy is its own audited behavior). append to
//     a nil or clean base is clean; append to a tainted base stays
//     tainted; copy(dst, tainted) taints dst only when the element type
//     itself carries references.
//   - returning the receiver itself is clean: the caller already holds
//     that value, so no new aliasing is exposed.
//
// Intentionally shared views are declared, not silenced: annotate the
// method's doc comment with `//lint:shared <reason>` (RemainingView's
// single-writer contract is the canonical example). A bare //lint:shared
// with no reason is itself a finding, so shares stay auditable.
package aliasret

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"affinitycluster/internal/lint/analysis"
)

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// Analyzer is the aliasret rule.
var Analyzer = &analysis.Analyzer{
	Name: "aliasret",
	Doc: "exported methods must not return references into unexported receiver " +
		"state without copying; declare intentional views with //lint:shared <reason>",
	Explain: `aliasret — no accidental views of internal state.

An exported method on a type whose struct carries unexported slice, map,
or pointer state must not return a value that aliases that state. A
returned alias couples the caller to every later mutation of the
receiver: PR 7 hit exactly this twice (Inventory.Clone silently sharing
the attached TierIndex, and the queue Peek/GetRequests audit).

Clean ways to return data: build a fresh slice/map, slices.Clone or
maps.Clone, append([]T(nil), src...), an explicit copy into a new
allocation, or delegate to a helper (call results are trusted — the
callee owns its own contract).

Escape hatch: some views are the point (Inventory.RemainingView is a
zero-copy single-writer view by design). Put "//lint:shared <reason>" in
the method's doc comment; the reason is mandatory and the directive only
binds when the comment is attached to the declaration.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if reason, shared := sharedReason(fd.Doc); shared {
				if reason == "" {
					pass.Reportf(fd.Pos(), "//lint:shared needs a reason: //lint:shared <why this view is safe>")
				}
				continue
			}
			checkMethod(pass, fd)
		}
	}
	return nil, nil
}

// sharedReason returns the reason text of a //lint:shared directive in
// doc, and whether one is present. Like //go:noinline, the directive
// binds only inside the doc comment attached to the declaration, and
// //lint:sharedfoo is not //lint:shared.
func sharedReason(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, found := strings.CutPrefix(c.Text, "//lint:shared")
		if found && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// checkMethod runs the taint pass over one exported method.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl) {
	recv := receiverVar(pass, fd)
	if recv == nil {
		return
	}
	named := receiverNamed(recv.Type())
	if named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok || !hasUnexportedRefState(st) {
		return
	}
	if fd.Type.Results == nil {
		return
	}
	m := &method{pass: pass, name: fd.Name.Name, recv: recv, tainted: map[types.Object]bool{}}
	m.resultObjs(fd)
	ast.Inspect(fd.Body, m.visit)
}

// method is the per-method taint state.
type method struct {
	pass    *analysis.Pass
	name    string
	recv    *types.Var
	tainted map[types.Object]bool
	results map[types.Object]bool // named result variables, for bare returns
}

func (m *method) resultObjs(fd *ast.FuncDecl) {
	m.results = map[types.Object]bool{}
	for _, field := range fd.Type.Results.List {
		for _, name := range field.Names {
			if obj := m.pass.ObjectOf(name); obj != nil {
				m.results[obj] = true
			}
		}
	}
}

func (m *method) visit(n ast.Node) bool {
	switch s := n.(type) {
	case *ast.AssignStmt:
		m.assign(s)
	case *ast.RangeStmt:
		m.rangeStmt(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			m.copyCall(call)
		}
	case *ast.ReturnStmt:
		m.returnStmt(s)
	case *ast.FuncLit:
		// A closure gets its own locals; taint inside it cannot flow to
		// this method's return statements except through captured
		// variables, which the outer pass already tracks. Skipping the
		// body keeps the pass single-scope and predictable.
		return false
	}
	return true
}

// assign propagates taint through one assignment statement.
func (m *method) assign(s *ast.AssignStmt) {
	// Multi-value forms: x, ok := r.m[k] (comma-ok index) keeps the
	// element taint on x; x, y := f() is a call, hence clean.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		t := m.taintedExpr(s.Rhs[0])
		m.setTaint(s.Lhs[0], t)
		for _, lhs := range s.Lhs[1:] {
			m.setTaint(lhs, false)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := s.Rhs[i]
		m.setTaint(lhs, m.taintedExpr(rhs))
		// Storing a local into receiver state makes the local an alias
		// of state from here on (the store-then-return shape).
		if m.isStateLvalue(lhs) {
			if id, ok := unparen(rhs).(*ast.Ident); ok {
				if obj := m.pass.ObjectOf(id); obj != nil && obj != m.recv {
					m.tainted[obj] = true
				}
			}
		}
		// Cleansing a struct copy: overwriting the sole reference-
		// carrying field of a tainted local struct value with a clean
		// value makes the copy clean — the "b := fs.blocks[id];
		// b.Replicas = append([]T(nil), b.Replicas...)" idiom. Pointer
		// locals don't qualify: writing through them mutates state.
		if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && !m.taintedExpr(rhs) {
			if id, ok := unparen(sel.X).(*ast.Ident); ok {
				if obj := m.pass.ObjectOf(id); obj != nil && m.tainted[obj] {
					if st, ok := obj.Type().Underlying().(*types.Struct); ok && soleRefField(st, sel.Sel.Name) {
						delete(m.tainted, obj)
					}
				}
			}
		}
	}
}

// rangeStmt taints the value variable when ranging over tainted storage
// whose elements themselves carry references ([][]int rows alias; []int
// elements are copies).
func (m *method) rangeStmt(s *ast.RangeStmt) {
	t := m.taintedExpr(s.X)
	if s.Key != nil {
		m.setTaint(s.Key, false)
	}
	if s.Value != nil {
		// The value ident is a definition, so its type lives on its
		// object rather than in the Types map.
		var elem types.Type
		if id, ok := unparen(s.Value).(*ast.Ident); ok {
			if obj := m.pass.ObjectOf(id); obj != nil {
				elem = obj.Type()
			}
		} else {
			elem = m.pass.TypeOf(s.Value)
		}
		m.setTaint(s.Value, t && elem != nil && carriesRefs(elem))
	}
}

// copyCall handles copy(dst, src): dst becomes tainted only when src is
// tainted and the element type carries references — copying []int out of
// state is a real copy, copying []*node shares the pointees.
func (m *method) copyCall(call *ast.CallExpr) {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" || len(call.Args) != 2 {
		return
	}
	if b, ok := m.pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "copy" {
		return
	}
	if !m.taintedExpr(call.Args[1]) {
		return
	}
	if dt := m.pass.TypeOf(call.Args[0]); dt != nil {
		if sl, ok := dt.Underlying().(*types.Slice); ok && carriesRefs(sl.Elem()) {
			m.setTaint(call.Args[0], true)
		}
	}
}

func (m *method) returnStmt(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		// Bare return: named results carry whatever taint they hold.
		for obj := range m.results {
			if m.tainted[obj] && carriesRefs(obj.Type()) {
				m.report(s.Pos())
				return
			}
		}
		return
	}
	for _, r := range s.Results {
		t := m.pass.TypeOf(r)
		if t != nil && carriesRefs(t) && m.taintedExpr(r) {
			m.report(r.Pos())
		}
	}
}

func (m *method) report(pos token.Pos) {
	m.pass.Reportf(pos, "%s returns a reference into unexported receiver state; "+
		"copy it (slices.Clone, append to nil, explicit copy) or declare the view with //lint:shared <reason>", m.name)
}

// taintedExpr reports whether e aliases unexported receiver state.
func (m *method) taintedExpr(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := m.pass.ObjectOf(x)
		// The receiver itself is clean — the caller already holds it.
		return obj != nil && obj != m.recv && m.tainted[obj]
	case *ast.SelectorExpr:
		return m.taintedSelector(x)
	case *ast.IndexExpr:
		if !m.taintedExpr(x.X) {
			return false
		}
		// Element type comes from the container: TypeOf on the index
		// expression itself would yield a (elem, bool) tuple in the
		// comma-ok form.
		elem := elemType(m.pass.TypeOf(x.X))
		return elem != nil && carriesRefs(elem)
	case *ast.SliceExpr:
		return m.taintedExpr(x.X)
	case *ast.StarExpr:
		return m.taintedExpr(x.X)
	case *ast.UnaryExpr:
		if x.Op.String() == "&" {
			return m.taintedExpr(x.X) || m.isStateLvalue(x.X)
		}
		return false
	case *ast.CallExpr:
		return m.taintedCall(x)
	}
	return false
}

// taintedSelector: recv.unexportedRefField is the taint source; a field
// of any tainted expression stays tainted when it's an unexported
// reference carrier. Exported fields are caller-visible anyway and add
// no new aliasing.
func (m *method) taintedSelector(sel *ast.SelectorExpr) bool {
	fieldObj := m.pass.ObjectOf(sel.Sel)
	fv, isField := fieldObj.(*types.Var)
	if !isField || !fv.IsField() {
		// Method value / qualified name: not a state reference.
		return false
	}
	if fv.Exported() || !carriesRefs(fv.Type()) {
		return false
	}
	base := unparen(sel.X)
	if id, ok := base.(*ast.Ident); ok && m.pass.ObjectOf(id) == m.recv {
		return true
	}
	return m.taintedExpr(sel.X)
}

// taintedCall: call results are clean (the callee owns its contract),
// with two exceptions — append propagates its base's taint, and a type
// conversion of a tainted reference is still the same reference.
func (m *method) taintedCall(call *ast.CallExpr) bool {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := m.pass.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "append" && len(call.Args) > 0 {
				return m.taintedExpr(call.Args[0])
			}
			return false
		}
	}
	// Conversion, e.g. NodeList(inv.nodes): same backing store.
	if tv, ok := m.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return m.taintedExpr(call.Args[0])
	}
	return false
}

// isStateLvalue reports whether e denotes a location inside unexported
// receiver state (recv.field, recv.field[i], ...).
func (m *method) isStateLvalue(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		fv, ok := m.pass.ObjectOf(x.Sel).(*types.Var)
		if !ok || !fv.IsField() || fv.Exported() {
			return false
		}
		if id, ok := unparen(x.X).(*ast.Ident); ok && m.pass.ObjectOf(id) == m.recv {
			return true
		}
		return m.isStateLvalue(x.X)
	case *ast.IndexExpr:
		return m.isStateLvalue(x.X)
	case *ast.StarExpr:
		return m.isStateLvalue(x.X)
	}
	return false
}

// setTaint records the taint of the variable behind an lvalue, if it is
// a plain local identifier.
func (m *method) setTaint(lhs ast.Expr, t bool) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := m.pass.ObjectOf(id)
	if obj == nil || obj == m.recv {
		return
	}
	if t {
		m.tainted[obj] = true
	} else {
		delete(m.tainted, obj)
	}
}

// soleRefField reports whether name is the only reference-carrying field
// of st.
func soleRefField(st *types.Struct, name string) bool {
	refs := 0
	match := false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !carriesRefs(f.Type()) {
			continue
		}
		refs++
		if f.Name() == name {
			match = true
		}
	}
	return refs == 1 && match
}

// elemType returns the element type of a slice, array, map, or pointer
// container, or nil.
func elemType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Pointer:
		return elemType(u.Elem())
	}
	return nil
}

// receiverVar returns the *types.Var of the (named) receiver.
func receiverVar(pass *analysis.Pass, fd *ast.FuncDecl) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	name := fd.Recv.List[0].Names[0]
	if name.Name == "_" {
		return nil
	}
	v, _ := pass.ObjectOf(name).(*types.Var)
	return v
}

// receiverNamed unwraps a (possibly pointer) receiver type to its Named.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// hasUnexportedRefState reports whether the struct has at least one
// unexported field whose type carries references.
func hasUnexportedRefState(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() && carriesRefs(f.Type()) {
			return true
		}
	}
	return false
}

// carriesRefs reports whether values of t can alias shared storage:
// slices, maps, and pointers, directly or through struct/array elements.
// Strings are immutable and channels/funcs/interfaces are out of scope
// ("slice/map/pointer-graph state").
func carriesRefs(t types.Type) bool {
	return carriesRefsDepth(t, 0)
}

func carriesRefsDepth(t types.Type, depth int) bool {
	if depth > 8 {
		return true // deep generic nesting: assume the worst
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	case *types.Array:
		return carriesRefsDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRefsDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}
