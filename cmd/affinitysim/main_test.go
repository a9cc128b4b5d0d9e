package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunAllFigures(t *testing.T) {
	if err := run(io.Discard, 2012, "all", "", "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	for _, fig := range []string{"2", "3", "4", "5", "6"} {
		if err := run(io.Discard, 7, fig, "", "", 0, 0, 0); err != nil {
			t.Errorf("fig %s: %v", fig, err)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, fig := range []string{"9", "service"} {
		if err := run(io.Discard, 7, fig, "", "", 0, 0, 0); err == nil {
			t.Errorf("unknown figure %q accepted", fig)
		}
	}
}

// TestRunRejectsBadFlagValues: a negative or non-finite -mtbf, -mttr or
// -requests is an error, not a silent fall-back to the scenario default,
// and an -mtbf so small that the fault schedule could never be drawn is
// refused instead of hanging. Each case runs under a timeout.
func TestRunRejectsBadFlagValues(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fig        string
		mtbf, mttr float64
		requests   int
	}{
		{"negative requests", "soak", 0, 0, -5},
		{"negative mtbf", "faults", -1, 0, 0},
		{"negative mttr", "faults", 0, -3, 0},
		{"NaN mtbf", "faults", math.NaN(), 0, 0},
		{"infinite mttr", "faults", 0, math.Inf(1), 0},
		{"tiny mtbf", "faults", 1e-300, 0, 0},
	} {
		done := make(chan error, 1)
		go func() { done <- run(io.Discard, 2012, tc.fig, "", "", tc.mtbf, tc.mttr, tc.requests) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10s", tc.name)
		}
	}
}

func TestOpsExportsAllMetricFamilies(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.jsonl")
	var out bytes.Buffer
	if err := run(&out, 2012, "ops", metrics, trace, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ops scenario") {
		t.Errorf("ops render missing headline:\n%s", out.String())
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"Counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v", err)
	}
	// One representative metric per instrumented family.
	for _, name := range []string{
		"cloudsim.served",
		"queue.enqueued",
		"placement.place_calls",
		"migration.plans",
		"mapreduce.jobs",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}

	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"kind":"place"`, `"kind":"mr_job_done"`} {
		if !strings.Contains(string(tr), kind) {
			t.Errorf("trace missing event %s", kind)
		}
	}
}

// Two runs with the same seed must produce byte-identical exports.
func TestOpsExportsDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := [2][2]string{}
	for i := 0; i < 2; i++ {
		m := filepath.Join(dir, "m"+string(rune('0'+i))+".json")
		tr := filepath.Join(dir, "t"+string(rune('0'+i))+".jsonl")
		if err := run(io.Discard, 4242, "ops", m, tr, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		paths[i] = [2]string{m, tr}
	}
	for j, label := range []string{"metrics", "trace"} {
		a, err := os.ReadFile(paths[0][j])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(paths[1][j])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s snapshots differ between identical-seed runs", label)
		}
	}
}

// An export path forces the ops scenario even when -fig selects a
// classic figure.
func TestMetricsFlagForcesOps(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	if err := run(io.Discard, 7, "2", metrics, "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file not written: %v", err)
	}
}

// The faults figure renders its headline, honours the MTBF/MTTR
// overrides, and takes over the exports from ops.
func TestRunFaultsFigure(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.jsonl")
	var out bytes.Buffer
	if err := run(&out, 2012, "faults", metrics, trace, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Faults scenario.") {
		t.Errorf("faults render missing headline:\n%s", out.String())
	}
	tr, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{`"kind":"fault"`, `"kind":"repair"`, `"kind":"recover"`} {
		if !strings.Contains(string(tr), kind) {
			t.Errorf("faults trace missing event %s", kind)
		}
	}
	if _, err := os.Stat(metrics); err != nil {
		t.Errorf("metrics file not written: %v", err)
	}

	// A huge MTBF relative to the horizon yields an empty schedule but a
	// still-valid run.
	out.Reset()
	if err := run(&out, 2012, "faults", "", "", 1e6, 5, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "injected 0 failures") {
		t.Errorf("quiet-MTBF run still injected failures:\n%s", out.String())
	}
}

// The soak figure renders its headline plus the machine-dependent replay
// line, and honours the -requests override.
func TestRunSoakFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2012, "soak", "", "", 0, 0, 3000); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Soak scenario.", "replayed 3000 open-loop requests", "replay:", "peak heap"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("soak output missing %q:\n%s", want, out.String())
		}
	}
}
