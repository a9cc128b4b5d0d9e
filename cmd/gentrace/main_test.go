package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/trace"
)

// readJSONL replays a trace file and returns its requests.
func readJSONL(t *testing.T, path string, wantTypes int) []model.TimedRequest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	rd, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Types() != wantTypes {
		t.Errorf("trace declares %d types, want %d", rd.Types(), wantTypes)
	}
	var reqs []model.TimedRequest
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return reqs
		}
		reqs = append(reqs, r)
	}
}

func TestGenerateToFileAndReload(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(5, 12, 3, "normal", out, 30, 300); err != nil {
		t.Fatal(err)
	}
	if n := len(readJSONL(t, out, 3)); n != 12 {
		t.Errorf("trace holds %d requests, want 12", n)
	}
}

func TestGenerateSmallScenario(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(5, 8, 3, "small", out, 10, 100); err != nil {
		t.Fatal(err)
	}
	for i, r := range readJSONL(t, out, 3) {
		if r.Vector.TotalVMs() > 3 {
			t.Errorf("small request %d has %d VMs", i, r.Vector.TotalVMs())
		}
	}
}

func TestGenerateStreamedNormal(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(5, 15, 3, "normal", out, 30, 300); err != nil {
		t.Fatal(err)
	}
	if n := len(readJSONL(t, out, 3)); n != 15 {
		t.Errorf("streamed %d requests, want 15", n)
	}
}

func TestGenerateOpenLoopStreams(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(5, 200, 4, "openloop", out, 2, 300); err != nil {
		t.Fatal(err)
	}
	if n := len(readJSONL(t, out, 4)); n != 200 {
		t.Errorf("streamed %d requests, want 200", n)
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"unknown scenario", func() error { return run(1, 5, 3, "weird", "", 30, 300) }},
		{"zero count", func() error { return run(1, 0, 3, "normal", "", 30, 300) }},
		{"negative count", func() error { return run(1, -2, 3, "normal", "", 30, 300) }},
		{"zero types", func() error { return run(1, 5, 0, "normal", "", 30, 300) }},
		{"negative interarrival", func() error { return run(1, 5, 3, "normal", "", -1, 300) }},
		{"NaN interarrival", func() error { return run(1, 5, 3, "normal", "", math.NaN(), 300) }},
		{"Inf interarrival", func() error { return run(1, 5, 3, "normal", "", math.Inf(1), 300) }},
		{"zero hold", func() error { return run(1, 5, 3, "normal", "", 30, 0) }},
		{"NaN hold", func() error { return run(1, 5, 3, "normal", "", 30, math.NaN()) }},
		{"Inf hold", func() error { return run(1, 5, 3, "normal", "", 30, math.Inf(1)) }},
	}
	for _, tc := range cases {
		if tc.call() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
