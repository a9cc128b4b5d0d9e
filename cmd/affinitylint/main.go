// Command affinitylint is the multichecker for this repo's custom
// analyzer suite: detrand (no wall clock / global rand / env reads in
// simulation packages), maporder (map iteration order must not reach
// ordered output), errdrop (no silently discarded errors from our own
// APIs), and aliasret (exported methods must not return views of
// unexported state uncopied). It machine-enforces the same-seed ⇒
// byte-identical contract of DESIGN.md §7–§10 and the bug classes of §15
// that no test catches.
//
// Usage:
//
//	affinitylint [-json] [-C dir] [-explain analyzer] [./...]
//
// The tool loads every package of the enclosing module (arguments other
// than ./... select subdirectories) and exits 1 when findings remain
// after //lint:allow suppression, 2 on load errors. -explain prints one
// analyzer's full invariant documentation and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"affinitycluster/internal/lint"
	"affinitycluster/internal/lint/aliasret"
	"affinitycluster/internal/lint/analysis"
	"affinitycluster/internal/lint/detrand"
	"affinitycluster/internal/lint/errdrop"
	"affinitycluster/internal/lint/load"
	"affinitycluster/internal/lint/maporder"
)

// Suite is the full analyzer set, in report order.
var suite = []*analysis.Analyzer{
	aliasret.Analyzer,
	detrand.Analyzer,
	errdrop.Analyzer,
	maporder.Analyzer,
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		listAll = flag.Bool("list", false, "list the analyzers and exit")
		explain = flag.String("explain", "", "print one analyzer's invariant documentation and exit")
		chdir   = flag.String("C", "", "change to dir before loading the module")
	)
	flag.Parse()
	if *listAll {
		for _, a := range suite {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	if *explain != "" {
		for _, a := range suite {
			if a.Name != *explain {
				continue
			}
			if a.Explain != "" {
				fmt.Println(a.Explain)
			} else {
				fmt.Printf("%s — %s\n", a.Name, a.Doc)
			}
			return
		}
		fatal(fmt.Errorf("unknown analyzer %q (use -list)", *explain))
	}
	if *chdir != "" {
		if err := os.Chdir(*chdir); err != nil {
			fatal(err)
		}
	}
	findings, err := run(flag.Args())
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s: %s: %s\n", f.Posn, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "affinitylint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// run loads the requested package directories and applies the suite.
// Patterns are module-relative directories; "" or "./..." means the whole
// module.
func run(patterns []string) ([]lint.Finding, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, err := load.ModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	pkgs, err := load.Module(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) > 0 && !isWholeModule(patterns) {
		pkgs = filterPkgs(pkgs, root, patterns)
	}
	findings, err := lint.Run(pkgs, suite)
	if err != nil {
		return nil, err
	}
	// Report module-relative paths so output is stable across checkouts.
	for i := range findings {
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].Pos.Filename = rel
			findings[i].Posn = findings[i].Pos.String()
		}
	}
	return findings, nil
}

func isWholeModule(patterns []string) bool {
	for _, p := range patterns {
		if p != "./..." && p != "..." && p != "." {
			return false
		}
	}
	return true
}

// filterPkgs keeps packages whose directory sits under one of the
// pattern directories ("./internal/obs", "internal/..." etc).
func filterPkgs(pkgs []*load.Package, root string, patterns []string) []*load.Package {
	var keep []*load.Package
	for _, p := range pkgs {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
			recursive := false
			if rest, ok := strings.CutSuffix(pat, "/..."); ok {
				pat, recursive = rest, true
			}
			if rel == pat || (recursive && strings.HasPrefix(rel, pat+"/")) {
				keep = append(keep, p)
				break
			}
		}
	}
	return keep
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "affinitylint:", err)
	os.Exit(2)
}
