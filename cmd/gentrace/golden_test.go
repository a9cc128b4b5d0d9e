package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

// TestGolden pins the JSONL trace of each scenario at the default flags.
// A change meant to alter one regenerates the digests with
//
//	go test ./cmd/gentrace -run Golden -update
//
// and says why.
func TestGolden(t *testing.T) {
	var g golden
	for _, scenario := range []string{"normal", "small", "openloop"} {
		out := filepath.Join(t.TempDir(), scenario+".jsonl")
		if err := run(1, 20, 3, scenario, out, 30, 300); err != nil {
			t.Fatalf("%s: %v", scenario, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		g.add("gentrace -scenario "+scenario, b)
	}
	g.check(t)
}

// golden collects one "SHA-256  name" line per output, in the order the
// test adds them.
type golden struct{ strings.Builder }

func (g *golden) add(name string, output []byte) {
	fmt.Fprintf(g, "%x  %s\n", sha256.Sum256(output), name)
}

// check compares the digests with testdata/golden.txt, or rewrites that
// file under -update.
func (g *golden) check(t *testing.T) {
	t.Helper()
	const path = "testdata/golden.txt"
	if *update {
		if err := os.WriteFile(path, []byte(g.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.String() != string(want) {
		t.Errorf("outputs diverged from %s; rerun with -update if the change is meant to alter them\ngot:\n%swant:\n%s", path, g.String(), want)
	}
}
