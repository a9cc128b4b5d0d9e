// Package callgraph builds a package-level call graph for the lint
// analyzers that reason about reachability (singlewriter, goexit).
//
// The graph is deliberately conservative in the may-call direction: a
// function F has an edge to every same-package function or method G that
// F's body *references* anywhere — direct calls, method calls, deferred
// and go'd calls, method values, and assignments of G into variables or
// struct fields all create the edge. Function literals are attributed to
// their enclosing declaration, so a closure built inside F that calls G
// contributes an F→G edge even when the closure itself runs later on
// another goroutine.
//
// Treating "references" as "may call" over-approximates real call paths
// (storing a function in a table counts as calling it) but never misses
// one within the package: a call through a function-typed field needs no
// edge of its own, because the only way the target got into the field was
// a reference that already produced the edge at the storing site.
// Cross-package references carry no edges — the analyzers that use this
// graph treat package boundaries as annotation boundaries.
package callgraph

import (
	"go/ast"
	"go/types"
	"slices"
)

// Graph is the package-level may-call graph.
type Graph struct {
	funcs []*types.Func                 // declared functions, file order
	decls map[*types.Func]*ast.FuncDecl // declaration of each function
	edges map[*types.Func][]*types.Func // F -> same-package functions F references
	eset  map[*types.Func]map[*types.Func]bool
}

// Build constructs the graph for one package from its parsed files and
// type information. Only functions with bodies contribute edges.
func Build(pkg *types.Package, info *types.Info, files []*ast.File) *Graph {
	g := &Graph{
		decls: map[*types.Func]*ast.FuncDecl{},
		edges: map[*types.Func][]*types.Func{},
		eset:  map[*types.Func]map[*types.Func]bool{},
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, fn)
			g.decls[fn] = fd
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				callee, ok := info.Uses[id].(*types.Func)
				if !ok || callee.Pkg() != pkg {
					return true
				}
				g.addEdge(fn, callee)
				return true
			})
		}
	}
	return g
}

func (g *Graph) addEdge(from, to *types.Func) {
	set := g.eset[from]
	if set == nil {
		set = map[*types.Func]bool{}
		g.eset[from] = set
	}
	if set[to] {
		return
	}
	set[to] = true
	g.edges[from] = append(g.edges[from], to)
}

// Funcs returns every declared function in file order.
func (g *Graph) Funcs() []*types.Func { return slices.Clone(g.funcs) }

// Decl returns the declaration of fn, or nil if fn is not declared in
// this package's files.
//
//lint:shared AST nodes are shared with the pass by design; the graph never mutates them
func (g *Graph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Callees returns the functions fn references, in first-reference order.
func (g *Graph) Callees(fn *types.Func) []*types.Func { return slices.Clone(g.edges[fn]) }

// Reachable returns the set of functions reachable from any root,
// including the roots themselves.
func (g *Graph) Reachable(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	work := append([]*types.Func(nil), roots...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		work = append(work, g.edges[fn]...)
	}
	return seen
}
