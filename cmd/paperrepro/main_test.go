package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this tree")

func TestFullReproductionRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full reproduction is slow")
	}
	if err := run(io.Discard, 2012, 2); err != nil {
		t.Fatal(err)
	}
}

// TestGolden pins the default report, text and -json. A change meant to
// alter either regenerates the digests with
//
//	go test ./cmd/paperrepro -run Golden -update
//
// and says why.
func TestGolden(t *testing.T) {
	var g golden
	var out bytes.Buffer
	if err := run(&out, 2012, 10); err != nil {
		t.Fatal(err)
	}
	g.add("paperrepro", out.Bytes())
	out.Reset()
	if err := runJSON(&out, 2012); err != nil {
		t.Fatal(err)
	}
	g.add("paperrepro -json", out.Bytes())
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
