package placement

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/topology"
	"affinitycluster/internal/topology/topotest"
)

// randomPlant builds an irregular topology (1–3 clouds × 1–4 racks × 1–5
// nodes) so the rack-probe scan faces uneven rack sizes and cloud splits.
// Every other plant is re-imported scrambled (topotest.Scramble), so the scan
// also meets racks whose node IDs are not consecutive and clouds that
// interleave.
func randomPlant(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultDistances())
	clouds := 1 + rng.Intn(3)
	for c := 0; c < clouds; c++ {
		b.AddCloud()
		racks := 1 + rng.Intn(4)
		for r := 0; r < racks; r++ {
			b.AddRack()
			b.AddNodes(1 + rng.Intn(5))
		}
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		return tp
	}
	return topotest.Scramble(t, rng, tp)
}

// TestRackProbeMatchesExhaustiveProperty drives the pruned scan and the
// reference Exhaustive scan through identical random
// request streams on random plants, depleting capacity in lockstep. At
// every step both must return byte-identical allocations (hence the same
// DC and the same winning center under the lowest-ID tie-break) or the
// same admission failure — the pruning must be invisible, not just
// DC-preserving.
func TestRackProbeMatchesExhaustiveProperty(t *testing.T) {
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := make([][]int, n)
		for i := range work {
			work[i] = make([]int, m)
			for j := range work[i] {
				work[i][j] = rng.Intn(5)
			}
		}
		pruned := &OnlineHeuristic{}
		exhaustive := &Exhaustive{}

		for step := 0; step < 12; step++ {
			r := make([]int, m)
			total := 0
			for j := range r {
				r[j] = rng.Intn(2 * n)
				total += r[j]
			}
			if total == 0 {
				r[rng.Intn(m)] = 1
			}
			got, gotErr := pruned.Place(tp, work, r)
			want, wantErr := exhaustive.Place(tp, work, r)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d step %d: pruned err %v, exhaustive err %v", trial, step, gotErr, wantErr)
			}
			if gotErr != nil {
				if !errors.Is(gotErr, ErrInsufficient) || !errors.Is(wantErr, ErrInsufficient) {
					t.Fatalf("trial %d step %d: unexpected errors %v / %v", trial, step, gotErr, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				gd, gk := got.Distance(tp)
				wd, wk := want.Distance(tp)
				t.Fatalf("trial %d step %d: allocations differ\npruned    (dc=%v center=%d): %v\nexhaustive (dc=%v center=%d): %v\nrequest %v",
					trial, step, gd, gk, got, wd, wk, want, r)
			}
			for i := range got {
				for j, k := range got[i] {
					work[i][j] -= k
				}
			}
		}
	}
}
