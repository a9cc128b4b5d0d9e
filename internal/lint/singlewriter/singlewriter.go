// Package singlewriter enforces the inventory mutation-ownership
// discipline structurally: the mutating methods of inventory.Inventory
// (Allocate, AllocateList, Release, ReleaseList, Move, FailNode,
// RestoreNode, AttachTierIndex) may only be called from
// functions reachable from an audited mutation root — a function
// annotated `//lint:owner singlewriter`.
//
// Why: once a TierIndex is attached, RemainingView and the index alias
// the live capacity matrices, and their coherence holds only between
// mutations on the goroutine that performs them. PR 7 made internal/
// service's apply loop the single writer and enforced the rule with a
// race-mode hammer test; this analyzer makes the discipline visible in
// the source, so a new call site in a random goroutine fails lint before
// it flakes under -race.
//
// Mechanics: per package, a conservative may-call graph (see
// internal/lint/callgraph) is built, the `//lint:owner singlewriter`
// roots are collected, and every mutator call site whose enclosing
// function is not reachable from a root is reported. Call sites in
// _test.go files and inside Inventory's own methods are exempt; an
// owner annotation with a trailing word other than "singlewriter" is a
// finding, so the annotation space stays closed.
package singlewriter

import (
	"go/ast"
	"go/types"
	"strings"

	"affinitycluster/internal/lint/analysis"
	"affinitycluster/internal/lint/callgraph"
	"affinitycluster/internal/lint/directive"
)

// Mutators are the Inventory methods under the ownership rule.
var Mutators = map[string]bool{
	"Allocate":        true,
	"AllocateList":    true,
	"Release":         true,
	"ReleaseList":     true,
	"Move":            true,
	"FailNode":        true,
	"RestoreNode":     true,
	"AttachTierIndex": true,
}

// Analyzer is the singlewriter rule.
var Analyzer = &analysis.Analyzer{
	Name: "singlewriter",
	Doc: "inventory.Inventory mutators may only be called from functions reachable " +
		"from a //lint:owner singlewriter annotated mutation root",
	Explain: `singlewriter — all inventory mutation flows through audited roots.

Inventory's mutating methods (Allocate*, Release*, Move, FailNode,
RestoreNode, AttachTierIndex) update the live capacity
matrices and, when a TierIndex is attached, the aggregates that
RemainingView and the index expose zero-copy. That sharing is only
coherent on the goroutine that mutates — the single-writer discipline
internal/service's apply loop established in PR 7.

The analyzer computes a package-level may-call graph (a function
"may call" everything it references, including through closures and
function-typed fields) and requires every mutator call site to be
reachable from a function annotated "//lint:owner singlewriter" in its
doc comment. Annotate the entry point that owns the mutation — the
service's lock-taking apply, a single-threaded simulation driver, a
provisioner API that commits under the inventory's own lock — not every
helper on the path; reachability covers the helpers.

Exempt: _test.go files, and Inventory's own methods (intra-type
plumbing).`,
	Run: run,
}

// pkgSegment is the final path segment with the loader's external-test
// suffix stripped.
func pkgSegment(path string) string {
	path = strings.TrimSuffix(path, ".test")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// isInventoryMutator reports whether fn is one of the guarded methods of
// inventory.Inventory.
func isInventoryMutator(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || !Mutators[fn.Name()] {
		return false
	}
	if pkgSegment(fn.Pkg().Path()) != "inventory" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Inventory"
}

// onInventory reports whether decl is itself a method of Inventory in the
// inventory package (intra-type plumbing is exempt).
func onInventory(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || pkgSegment(pass.Pkg.Path()) != "inventory" {
		return false
	}
	fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Inventory"
}

func run(pass *analysis.Pass) (any, error) {
	graph := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files)

	// Collect owner roots, validating the annotation argument.
	var owners []*types.Func
	for _, fn := range graph.Funcs() {
		decl := graph.Decl(fn)
		arg, ok := directive.Find(decl.Doc, "owner")
		if !ok {
			continue
		}
		if arg != "singlewriter" {
			pass.Reportf(decl.Pos(), "unknown //lint:owner argument %q: want //lint:owner singlewriter", arg)
			continue
		}
		owners = append(owners, fn)
	}
	reach := graph.Reachable(owners)

	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if onInventory(pass, decl) {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if fn != nil && reach[fn] {
				continue
			}
			// Flag any reference to a mutator, not just direct calls:
			// a method value stored from a non-owner is a mutation
			// smuggled past the ownership audit just the same.
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				callee, _ := pass.ObjectOf(sel.Sel).(*types.Func)
				if !isInventoryMutator(callee) {
					return true
				}
				pass.Reportf(sel.Pos(), "Inventory.%s referenced outside a single-writer owner; "+
					"reach it from a //lint:owner singlewriter function or annotate this mutation root", callee.Name())
				return true
			})
		}
	}
	return nil, nil
}
