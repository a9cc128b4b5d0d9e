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

// TestGolden pins the README's one-shot problem under each strategy. A
// change meant to alter an output regenerates the digests with
//
//	go test ./cmd/vcplace -run Golden -update
//
// and says why.
func TestGolden(t *testing.T) {
	path := writeProblem(t, `{"racksPerCloud":3,"nodesPerRack":10,"request":[2,4,1]}`)
	var g golden
	for _, strategy := range []string{"online", "firstfit", "roundrobin", "pack"} {
		var out bytes.Buffer
		if err := run(&out, path, strategy); err != nil {
			t.Fatal(err)
		}
		g.add("vcplace -strategy "+strategy, out.Bytes())
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
