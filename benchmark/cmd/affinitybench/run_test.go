package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command as the
// calibration child process that speed.measure starts.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-calibrate" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T, workload string, trace bool) Options {
	return Options{
		Workload: workload, Seed: 2012, Reps: 1, Trace: trace,
		WorkDir: t.TempDir(),
		sizes:   sizes{soak: 2_000, elastic: 400, hopCycles: 300, k16Cycles: 40},
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsTiny runs every workload at a tiny size in both modes and
// checks that each applicable metric is reported once, with a well-formed
// name and unit, and that the result line holds exactly the mode's
// metrics.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w.name, trace)
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range catalog {
				if !metricName.MatchString(m.name) || m.unit == "" {
					t.Errorf("metric %q has a bad name or no unit", m.name)
				}
				want := m.applies(w.features) && (trace || m.endToEnd)
				if _, got := res.Metrics[m.name]; want && !got {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				}
				if v, ok := res.Metrics[m.name]; ok && !m.applies(w.features) {
					t.Errorf("%s trace=%v: metric %s reported (%v) but does not apply", w.name, trace, m.name, v.V)
				}
				if v := res.Metrics[m.name]; m.endToEnd && !(v.V > 0) {
					t.Errorf("%s trace=%v: end-to-end metric %s is %v", w.name, trace, m.name, v.V)
				}
			}
			var out bytes.Buffer
			if err := emit(res, o, &out); err != nil {
				t.Fatal(err)
			}
			checkLines(t, res, trace, out.String())
		}
	}
}

// checkLines checks the printed metric lines and the final result line.
func checkLines(t *testing.T, res *Result, trace bool, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	seen := map[string]bool{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 5 || f[0] != res.Workload || !strings.HasPrefix(f[4], "n=") {
			t.Fatalf("malformed metric line %q", l)
		}
		if seen[f[1]] {
			t.Errorf("metric %s printed twice", f[1])
		}
		seen[f[1]] = true
	}
	var line struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	want := 0
	for _, m := range catalog {
		if !m.inMode(trace) {
			continue
		}
		want++
		if got, ok := line.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("result line lacks %s (or its unit)", m.name)
		}
	}
	if len(line.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), want)
	}
}

// TestSpecMatchesCatalog keeps BENCHMARK.json and the catalog in step.
func TestSpecMatchesCatalog(t *testing.T) {
	path := filepath.Join("..", "..", "..", "BENCHMARK.json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	s, err := readSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, s.Workloads[i].Name, w.name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range catalog {
		if m.endToEnd {
			e2e = append(e2e, m)
		} else {
			layers = append(layers, m)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalog %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", s.EndToEnd, e2e)
	check("per_layer", s.PerLayer, layers)
	maxBound := 0.0
	for _, m := range s.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
}

// TestBadArgs: bad flags and sizes are errors, never panics.
func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "x"},
		{"-reps", "-1"},
		{"-trace", "2"},
		{"-trace"},
		{"-seed", "x"},
		{"stray"},
		{"-compare", "only-one.json"},
	} {
		if _, err := ParseArgs(args, io.Discard); err == nil {
			t.Errorf("ParseArgs(%q) accepted", args)
		}
		if code := Main(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("Main(%q) exited 0", args)
		}
	}
	o := tinyOptions(t, "soak", false)
	o.sizes.soak = 0
	if _, err := Run(o); err == nil {
		t.Error("Run accepted a zero request count")
	}
	o = tinyOptions(t, "svc-hop", false)
	o.sizes.hopCycles = -1
	if _, err := Run(o); err == nil {
		t.Error("Run accepted a negative cycle count")
	}
	if o, err := ParseArgs([]string{"--workload", "svc-hop", "--seed", "3", "--seconds", "10", "--trace", "1"}, io.Discard); err != nil || !o.Trace || o.Seed != 3 || o.Reps != 0 {
		t.Errorf("double-dash flags parsed as %+v, %v", o, err)
	}
}
