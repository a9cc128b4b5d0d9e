package main

import (
	"io"
	"reflect"
	"testing"

	"affinitycluster/internal/experiments"
)

// TestSoakParity pins the benchmark's own soak to the repository's
// scenario: at 20k requests its metrics must equal experiments.Soak's,
// so the workload cannot drift from what the repo calls the soak.
func TestSoakParity(t *testing.T) {
	const seed, n = 2012, 20_000
	p := newSoakParams(n, false)
	rep, err := runSoakRep(seed, p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.Soak(seed, p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.m, want.Cloud) {
		t.Fatalf("benchmark soak diverged from experiments.Soak:\n got %+v\nwant %+v", rep.m, want.Cloud)
	}
}

// TestSoakDeterminism: the same seed gives identical deterministic
// metrics, with obs on or off; another seed gives different ones.
func TestSoakDeterminism(t *testing.T) {
	p := newSoakParams(3_000, true)
	a, err := runSoakRep(7, p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSoakRep(7, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.m, b.m) {
		t.Fatal("same seed, obs on vs off: metrics differ")
	}
	c, err := runSoakRep(8, p, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.m, c.m) {
		t.Fatal("seeds 7 and 8 gave identical metrics")
	}
}
