package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// arm is one benchmark result's name and allocs/op.
type arm struct {
	name   string
	allocs float64
}

// report builds a report of the given arms, every one at 1000 ns/op.
func report(arms ...arm) *Report {
	rep := &Report{}
	for _, a := range arms {
		rep.Results = append(rep.Results, Result{
			Name:       a.name,
			Iterations: 100,
			Metrics:    map[string]float64{"ns/op": 1000, "allocs/op": a.allocs},
		})
	}
	return rep
}

func TestCompareAllocSlack(t *testing.T) {
	base := report(arm{"BenchmarkA", 2}, arm{"BenchmarkB", 0})
	for _, tc := range []struct {
		name string
		cur  *Report
		want []string
	}{
		{"unchanged", report(arm{"BenchmarkA", 2}, arm{"BenchmarkB", 0}), nil},
		{"fewer allocations", report(arm{"BenchmarkA", 1}, arm{"BenchmarkB", 0}), nil},
		{"rise of 1 passes", report(arm{"BenchmarkA", 3}, arm{"BenchmarkB", 1}), nil},
		{"rise of 2 fails", report(arm{"BenchmarkA", 4}, arm{"BenchmarkB", 1}), []string{"BenchmarkA"}},
		{"both arms fail", report(arm{"BenchmarkA", 5}, arm{"BenchmarkB", 2}), []string{"BenchmarkA", "BenchmarkB"}},
	} {
		var out bytes.Buffer
		if got := compare(&out, base, tc.cur); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: regressed %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestCompareReportsAddedAndMissingArms(t *testing.T) {
	base := report(arm{"BenchmarkKept", 2}, arm{"BenchmarkGone", 1})
	cur := report(arm{"BenchmarkKept", 2}, arm{"BenchmarkAdded", 50})
	var out bytes.Buffer
	if got := compare(&out, base, cur); got != nil {
		t.Fatalf("regressed %v, want none: added and missing arms are not failures", got)
	}
	for _, want := range []string{
		"BenchmarkKept: ns/op 1000 → 1000 (+0, +0.0%), allocs/op 2 → 2 (+0, +0.0%)",
		"BenchmarkAdded: new arm",
		"BenchmarkGone: missing",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCompareIgnoresTime: ns/op is printed but never judged, and an arm
// without -benchmem columns is not judged on allocations.
func TestCompareIgnoresTime(t *testing.T) {
	base := &Report{Results: []Result{
		{Name: "BenchmarkSlow", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
		{Name: "BenchmarkNoMem", Metrics: map[string]float64{"ns/op": 100}},
	}}
	cur := &Report{Results: []Result{
		{Name: "BenchmarkSlow", Metrics: map[string]float64{"ns/op": 900, "allocs/op": 0}},
		{Name: "BenchmarkNoMem", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 7}},
	}}
	var out bytes.Buffer
	if got := compare(&out, base, cur); got != nil {
		t.Fatalf("regressed %v, want none\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkSlow: ns/op 100 → 900 (+800, +800.0%)") {
		t.Errorf("ns/op delta missing:\n%s", out.String())
	}
}

func TestRunCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	baseJSON := `{"results":[{"name":"BenchmarkService/clients=1","iterations":20000,"metrics":{"allocs/op":2,"ns/op":3000}}]}`
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cur  string
		want int
	}{
		{`{"results":[{"name":"BenchmarkService/clients=1","iterations":20000,"metrics":{"allocs/op":3,"ns/op":9000}}]}`, 0},
		{`{"results":[{"name":"BenchmarkService/clients=1","iterations":20000,"metrics":{"allocs/op":10,"ns/op":3000}}]}`, 1},
		{`not json`, 1},
	} {
		var out, errOut bytes.Buffer
		if got := runCompare(basePath, strings.NewReader(tc.cur), &out, &errOut); got != tc.want {
			t.Errorf("runCompare(%s) = %d, want %d\nstdout: %s\nstderr: %s", tc.cur, got, tc.want, out.String(), errOut.String())
		}
	}
	var out, errOut bytes.Buffer
	if got := runCompare(filepath.Join(dir, "absent.json"), strings.NewReader(baseJSON), &out, &errOut); got != 1 {
		t.Errorf("runCompare with a missing base = %d, want 1", got)
	}
}
