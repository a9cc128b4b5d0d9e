package main

import (
	"os"
	"path/filepath"
	"testing"
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
	// Capacity rows whose width differs from the request's are errors
	// under every strategy, with or without the exact solver — not panics.
	for _, tc := range []struct{ name, content string }{
		{"wide request", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1,1]],"request":[1,1,1]}`},
		{"ragged row", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1]],"request":[1,1]}`},
		{"narrow request", `{"racksPerCloud":1,"nodesPerRack":2,"capacities":[[1,1],[1,1]],"request":[1]}`},
	} {
		path := writeProblem(t, tc.content)
		for _, strategy := range []string{"online", "firstfit", "roundrobin", "pack"} {
			for _, exact := range []bool{false, true} {
				if err := run(path, exact, strategy); err == nil {
					t.Errorf("%s accepted by %s (exact %v)", tc.name, strategy, exact)
				}
			}
		}
	}
}
