package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

// TestGolden pins every deterministic output of the default seed: the
// stdout of -fig all, and the stdout, -metrics and -trace of the ops,
// faults, elastic and 20k-request soak figures, minus the soak's
// wall-clock replay line. A change meant to alter an output regenerates
// the digests with
//
//	go test ./cmd/affinitysim -run Golden -update
//
// and says which ones moved and why.
func TestGolden(t *testing.T) {
	var g golden
	var stdout bytes.Buffer
	if err := run(&stdout, 2012, "all", "", "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	g.add("-fig all", stdout.Bytes())
	dir := t.TempDir()
	for _, fig := range []string{"ops", "faults", "elastic", "soak"} {
		metrics := filepath.Join(dir, fig+".json")
		trace := filepath.Join(dir, fig+".jsonl")
		requests := 0
		if fig == "soak" {
			requests = 20000
		}
		stdout.Reset()
		if err := run(&stdout, 2012, fig, metrics, trace, 0, 0, requests); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		g.add("-fig "+fig, dropLines(stdout.Bytes(), "replay: "))
		g.add("-fig "+fig+" -metrics", readFile(t, metrics))
		g.add("-fig "+fig+" -trace", readFile(t, trace))
	}
	g.check(t)
}

// dropLines returns b without the lines that start with prefix.
func dropLines(b []byte, prefix string) []byte {
	var kept []byte
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			kept = append(kept, line...)
		}
	}
	return kept
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	if want := readFile(t, path); g.String() != string(want) {
		t.Errorf("outputs diverged from %s; rerun with -update if the change is meant to alter them\ngot:\n%swant:\n%s", path, g.String(), want)
	}
}
