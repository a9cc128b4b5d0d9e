// Package detrand forbids wall-clock, ambient-randomness, and
// environment-driven behavior in the simulation packages, where the
// reproduction's same-seed ⇒ byte-identical contract lives (DESIGN.md
// §7–§9). Simulation code must consume virtual time (eventsim) and an
// injected, seeded *rand.Rand; a single stray time.Now or global
// rand.Intn silently breaks figure-output determinism, which hand-written
// equivalence tests only catch on the paths they happen to cover.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"affinitycluster/internal/lint/analysis"
)

// SimPackages names the packages (by final import-path segment) under the
// determinism contract. External test packages ("<seg>.test" paths) are
// included: test helpers feed the same golden-output assertions.
var SimPackages = map[string]bool{
	"placement":   true,
	"affinity":    true,
	"anneal":      true,
	"jointopt":    true,
	"queue":       true,
	"cloudsim":    true,
	"faults":      true,
	"mapreduce":   true,
	"migration":   true,
	"experiments": true,
	"eventsim":    true,
	"obs":         true,
	"report":      true,
}

// banned maps package path -> function name -> short reason. Only
// package-level functions are listed; methods on injected values
// (e.g. (*rand.Rand).Intn) are fine by construction.
var banned = map[string]map[string]string{
	"time": {
		"Now":       "wall clock; use eventsim virtual time",
		"Since":     "wall clock; use eventsim virtual time",
		"Until":     "wall clock; use eventsim virtual time",
		"Sleep":     "wall-clock delay; advance virtual time instead",
		"Tick":      "wall-clock ticker; schedule eventsim events instead",
		"After":     "wall-clock timer; schedule eventsim events instead",
		"AfterFunc": "wall-clock timer; schedule eventsim events instead",
		"NewTicker": "wall-clock ticker; schedule eventsim events instead",
		"NewTimer":  "wall-clock timer; schedule eventsim events instead",
	},
	"os": {
		"Getenv":    "environment-driven behavior; thread configuration explicitly",
		"LookupEnv": "environment-driven behavior; thread configuration explicitly",
		"Environ":   "environment-driven behavior; thread configuration explicitly",
		"ExpandEnv": "environment-driven behavior; thread configuration explicitly",
	},
}

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than touching the shared global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
	"NewZipf":    true, // takes an explicit *Rand
}

// Analyzer is the detrand rule.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "forbid time.Now/time.Since, global math/rand functions, and os.Getenv " +
		"in simulation packages; determinism requires virtual time and injected RNGs",
	Run: run,
}

// pkgSegment is the final path segment with the loader's external-test
// suffix stripped, so "affinitycluster/internal/obs.test" gates like obs.
func pkgSegment(path string) string {
	path = strings.TrimSuffix(path, ".test")
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

func run(pass *analysis.Pass) (any, error) {
	if !SimPackages[pkgSegment(pass.Pkg.Path())] {
		return nil, nil
	}
	pass.Preorder(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		// Skip methods: only package-level functions carry ambient state.
		if fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		pkgPath, name := fn.Pkg().Path(), fn.Name()
		if reason, ok := banned[pkgPath][name]; ok {
			pass.Reportf(sel.Pos(), "%s.%s in simulation package: %s", pkgPath, name, reason)
			return true
		}
		if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name] {
			pass.Reportf(sel.Pos(), "global %s.%s in simulation package: use an injected seeded *rand.Rand", pkgPath, name)
		}
		return true
	})
	return nil, nil
}
