package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

// TestGolden pins Figs 7–8 at the default seed, balanced and -skewed. A
// change meant to alter them regenerates the digests with
//
//	go test ./cmd/mrsim -run Golden -update
//
// and says why.
func TestGolden(t *testing.T) {
	var g golden
	for _, skewed := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, 2012, skewed, "wordcount"); err != nil {
			t.Fatal(err)
		}
		name := "mrsim"
		if skewed {
			name += " -skewed"
		}
		g.add(name, out.Bytes())
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
