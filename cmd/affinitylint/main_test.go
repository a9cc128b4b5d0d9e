package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affinitycluster/internal/lint/load"
)

// TestRepoIsClean is the self-hosting gate: the analyzer suite must come
// back empty on this repository. Any true positive introduced by a later
// PR fails here (and in `make lint`) before it can corrupt the
// byte-identical figure-output contract.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(wd, "..", "..")
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	findings, err := run([]string{"./..."})
	if err != nil {
		t.Fatalf("affinitylint failed to run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s: %s", f.Posn, f.Analyzer, f.Message)
	}
}

// TestDirectivesNameSuiteAnalyzers: every //lint: directive in the
// module is one the suite reads, a //lint:allow naming one of its
// analyzers or a //lint:shared. lint.Run does not audit an allow whose
// analyzer did not run, and nothing reads any other kind, so a
// directive left behind by a deleted analyzer would stay as dead text.
// benchmark/ is skipped: its //lint:owner comments go with the
// benchmark's refresh (ROADMAP item 1).
func TestDirectivesNameSuiteAnalyzers(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs, err := load.Dirs(root)
	if err != nil {
		t.Fatal(err)
	}
	inSuite := map[string]bool{}
	for _, a := range suite {
		inSuite[a.Name] = true
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		if rel, _ := filepath.Rel(root, dir); rel == "benchmark" || strings.HasPrefix(rel, "benchmark"+string(filepath.Separator)) {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:")
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					switch {
					case len(fields) > 0 && fields[0] == "shared":
					case len(fields) > 1 && fields[0] == "allow" && inSuite[fields[1]]:
					default:
						t.Errorf("%s: %s: no analyzer of the suite reads it", fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}
