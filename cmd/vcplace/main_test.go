package main

import (
	"errors"
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
		if err := run(path, false, strategy); err != nil {
			t.Errorf("%s: %v", strategy, err)
		}
	}
}

func TestRunWithExact(t *testing.T) {
	path := writeProblem(t, `{"racksPerCloud":2,"nodesPerRack":2,"request":[3]}`)
	if err := run(path, true, "online"); err != nil {
		t.Fatal(err)
	}
}

func TestRunExplicitCapacities(t *testing.T) {
	path := writeProblem(t, `{
		"racksPerCloud":1,"nodesPerRack":2,
		"capacities":[[2],[2]],
		"request":[3]
	}`)
	if err := run(path, false, "online"); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.json"), false, "online"); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeProblem(t, `{`)
	if err := run(bad, false, "online"); err == nil {
		t.Error("corrupt JSON accepted")
	}
	noPlant := writeProblem(t, `{"request":[1]}`)
	if err := run(noPlant, false, "online"); err == nil {
		t.Error("empty plant accepted")
	}
	wrongShape := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1]],"request":[1]}`)
	if err := run(wrongShape, false, "online"); err == nil {
		t.Error("mismatched capacities accepted")
	}
	ok := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"request":[1]}`)
	if err := run(ok, false, "nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	tooBig := writeProblem(t, `{"racksPerCloud":1,"nodesPerRack":2,"request":[99]}`)
	if err := run(tooBig, false, "online"); err == nil {
		t.Error("infeasible request accepted")
	}
	// Capacity rows whose width differs from the request's, negative
	// demands, negative capacities and capacities whose sum overflows int
	// are errors under every strategy,
	// with or without the exact solver — not panics, and not placements.
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
			for _, exact := range []bool{false, true} {
				if err := run(path, exact, strategy); err == nil || errors.Is(err, placement.ErrInsufficient) {
					t.Errorf("%s: %s (exact %v) err = %v, want a malformed-input error", tc.name, strategy, exact, err)
				}
			}
		}
	}
}
