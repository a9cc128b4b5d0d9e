package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"affinitycluster/internal/placement"
)

func writeProblem(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "problem.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithDefaultCapacities(t *testing.T) {
	path := writeProblem(t, `{"racksPerCloud":2,"nodesPerRack":3,"request":[2,4,1]}`)
	for _, strategy := range []string{"online", "firstfit", "roundrobin", "pack"} {
		if err := run(io.Discard, path, strategy); err != nil {
			t.Errorf("%s: %v", strategy, err)
		}
	}
}

func TestRunExplicitCapacities(t *testing.T) {
	path := writeProblem(t, `{
		"racksPerCloud":1,"nodesPerRack":2,
		"capacities":[[2],[2]],
		"request":[3]
	}`)
	if err := run(io.Discard, path, "online"); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, filepath.Join(t.TempDir(), "missing.json"), "online"); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeProblem(t, `{`)
	if err := run(io.Discard, bad, "online"); err == nil {
		t.Error("corrupt JSON accepted")
	}
	noPlant := writeProblem(t, `{"request":[1]}`)
	if err := run(io.Discard, noPlant, "online"); err == nil {
		t.Error("empty plant accepted")
	}
	wrongShape := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1]],"request":[1]}`)
	if err := run(io.Discard, wrongShape, "online"); err == nil {
		t.Error("mismatched capacities accepted")
	}
	ok := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"request":[1]}`)
	if err := run(io.Discard, ok, "nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	tooBig := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"request":[99]}`)
	if err := run(io.Discard, tooBig, "online"); err == nil {
		t.Error("infeasible request accepted")
	}
	// Capacity rows whose width differs from the request's, negative
	// demands, negative capacities and capacities whose sum overflows int
	// are errors under every strategy — not panics, and not placements.
	for _, tc := range []struct{ name, content string }{
		{"wide request", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1,1]],"request":[1,1,1]}`},
		{"ragged row", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1]],"request":[1,1]}`},
		{"narrow request", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1,1]],"request":[1]}`},
		{"negative demand", `{"racksPerCloud":1,"nodesPerRack":2,"request":[-1]}`},
		{"negative capacity", `{"racksPerCloud":1,"nodesPerRack":3,"capacities":[[-1],[1],[1]],"request":[2]}`},
		{"capacities overflow int", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[9000000000000000000],[9000000000000000000]],"request":[5]}`},
		{"node count overflows int", `{"clouds":3037000500,"racksPerCloud":3037000500,"nodesPerRack":1,"request":[1]}`},
		{"plant too large to build", `{"racksPerCloud":100000,"nodesPerRack":100000,"request":[1]}`},
	} {
		path := writeProblem(t, tc.content)
		for _, strategy := range []string{"online", "firstfit", "roundrobin", "pack"} {
			if err := run(io.Discard, path, strategy); err == nil || errors.Is(err, placement.ErrInsufficient) {
				t.Errorf("%s: %s err = %v, want a malformed-input error", tc.name, strategy, err)
			}
		}
	}
}
