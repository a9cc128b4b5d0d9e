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
		if got, missing := compare(&out, base, tc.cur); !reflect.DeepEqual(got, tc.want) || missing != nil {
			t.Errorf("%s: regressed %v, missing %v, want %v and none missing\n%s", tc.name, got, missing, tc.want, out.String())
		}
	}
}

// TestCompareWholeReplaySlack: an arm whose base ran one iteration is a
// whole replay, judged by replaySlack. BenchmarkSoak/1M read 1,134,706
// allocs/op against a checked-in 1,134,185 on unchanged code, which must
// pass; one more allocation for each of its 1M requests must fail. An
// arm of many iterations keeps the +1 slack.
func TestCompareWholeReplaySlack(t *testing.T) {
	replay := func(allocs float64) *Report {
		return &Report{Results: []Result{{Name: "BenchmarkSoak/1M", Iterations: 1, Metrics: map[string]float64{"allocs/op": allocs}}}}
	}
	for _, tc := range []struct {
		name string
		cur  float64
		want []string
	}{
		{"run-to-run spread", 1134706, nil},
		{"fewer allocations", 1134158, nil},
		{"one more per request", 1134185 + 1000000, []string{"BenchmarkSoak/1M"}},
	} {
		var out bytes.Buffer
		if got, missing := compare(&out, replay(1134185), replay(tc.cur)); !reflect.DeepEqual(got, tc.want) || missing != nil {
			t.Errorf("%s: regressed %v, missing %v, want %v\n%s", tc.name, got, missing, tc.want, out.String())
		}
	}
	many := &Report{Results: []Result{{Name: "BenchmarkChurn/x", Iterations: 100, Metrics: map[string]float64{"allocs/op": 1134185}}}}
	cur := &Report{Results: []Result{{Name: "BenchmarkChurn/x", Iterations: 100, Metrics: map[string]float64{"allocs/op": 1134187}}}}
	var out bytes.Buffer
	if got, _ := compare(&out, many, cur); !reflect.DeepEqual(got, []string{"BenchmarkChurn/x"}) {
		t.Errorf("a 100-iteration arm rising by 2 allocs/op: regressed %v, want it named\n%s", got, out.String())
	}
}

func TestCompareReportsAddedAndMissingArms(t *testing.T) {
	base := report(arm{"BenchmarkKept", 2}, arm{"BenchmarkGone", 1})
	cur := report(arm{"BenchmarkKept", 2}, arm{"BenchmarkAdded", 50})
	var out bytes.Buffer
	got, missing := compare(&out, base, cur)
	if got != nil {
		t.Fatalf("regressed %v, want none: an added arm is not a regression", got)
	}
	if !reflect.DeepEqual(missing, []string{"BenchmarkGone"}) {
		t.Fatalf("missing %v, want [BenchmarkGone]", missing)
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
	if got, missing := compare(&out, base, cur); got != nil || missing != nil {
		t.Fatalf("regressed %v, missing %v, want none\n%s", got, missing, out.String())
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
		// A renamed arm: the base's arm is missing, and the new one is not
		// judged, so the gate must fail rather than pass unseen.
		{`{"results":[{"name":"BenchmarkService/clients=01","iterations":20000,"metrics":{"allocs/op":2,"ns/op":3000}}]}`, 1},
		{`{"results":[]}`, 1},
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

// TestRunCompareFailsOnMissingArm: an arm that drops out of the new
// report fails the gate and is named on stderr, while an arm only the
// new report has passes.
func TestRunCompareFailsOnMissingArm(t *testing.T) {
	basePath := filepath.Join(t.TempDir(), "base.json")
	baseJSON := `{"results":[` +
		`{"name":"BenchmarkPlaceScale/pruned/2x20x20","iterations":100,"metrics":{"allocs/op":0,"ns/op":3000}},` +
		`{"name":"BenchmarkPlaceScale/spill/pruned/2x20x20","iterations":100,"metrics":{"allocs/op":0,"ns/op":9000}}]}`
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	skipped := `{"results":[{"name":"BenchmarkPlaceScale/pruned/2x20x20","iterations":100,"metrics":{"allocs/op":0,"ns/op":3000}}]}`
	if got := runCompare(basePath, strings.NewReader(skipped), &out, &errOut); got != 1 {
		t.Fatalf("runCompare with a skipped arm = %d, want 1\nstdout: %s", got, out.String())
	}
	if !strings.Contains(errOut.String(), "BenchmarkPlaceScale/spill/pruned/2x20x20") {
		t.Errorf("stderr does not name the missing arm: %s", errOut.String())
	}
	out.Reset()
	errOut.Reset()
	added := `{"results":[` +
		`{"name":"BenchmarkPlaceScale/pruned/2x20x20","iterations":100,"metrics":{"allocs/op":0,"ns/op":3000}},` +
		`{"name":"BenchmarkPlaceScale/spill/pruned/2x20x20","iterations":100,"metrics":{"allocs/op":0,"ns/op":9000}},` +
		`{"name":"BenchmarkPlaceScale/spill/pruned/10x40x40","iterations":100,"metrics":{"allocs/op":0,"ns/op":30000}}]}`
	if got := runCompare(basePath, strings.NewReader(added), &out, &errOut); got != 0 {
		t.Errorf("runCompare with an added arm = %d, want 0\nstderr: %s", got, errOut.String())
	}
}
