package placement

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
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
		work := randomWork(rng, n, m)
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
			if got := placeBoth(t, tp, work, r, pruned, exhaustive, trial, step); got != nil {
				deplete(work, got)
			}
		}
	}
}

// TestRackProbeSaturatedPrefixProperty holds the pruned scan to the
// Exhaustive reference where its work-skipping devices act. Each plant
// (half of them scrambled) has every node of a random prefix of the
// sweep's walk (RacksByLowestNode) emptied, so the walk crosses racks
// that absorb nothing and settles them with purely remote builds; half
// the requests ask for one VM more than a random node holds, so no node
// covers them and some rack may price exactly the floor, where the bound
// pass stops. Every step must place as the reference does, and over all
// steps the bound pass must stop at the floor with the sweep then reading
// rack caps the pass never reached, and a purely remote build must win.
func TestRackProbeSaturatedPrefixProperty(t *testing.T) {
	const trials = 200
	var lazyCaps, remoteWins int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := randomWork(rng, n, m)
		order := tp.RacksByLowestNode()
		for _, rho := range order[:rng.Intn(len(order))] {
			for _, id := range tp.RackNodes(rho) {
				clear(work[id])
			}
		}
		pruned := &OnlineHeuristic{}
		exhaustive := &Exhaustive{}
		for step := 0; step < 12; step++ {
			r := make([]int, m)
			if rng.Intn(2) == 0 {
				copy(r, work[rng.Intn(n)])
			} else {
				for j := range r {
					r[j] = rng.Intn(2 * n)
				}
			}
			r[rng.Intn(m)]++
			got := placeBoth(t, tp, work, r, pruned, exhaustive, trial, step)
			if got == nil {
				continue
			}
			lazy, remote := sweepEvents(t, tp, work, r)
			if lazy {
				lazyCaps++
			}
			if remote {
				remoteWins++
			}
			deplete(work, got)
		}
	}
	t.Logf("%d placements read rack caps past a floor exit, %d were won by a purely remote build", lazyCaps, remoteWins)
	if lazyCaps == 0 || remoteWins == 0 {
		t.Fatalf("%d placements read rack caps past a floor exit and %d were won by a purely remote build; both must occur", lazyCaps, remoteWins)
	}
}

// randomWork draws an n×m capacity matrix of 0–4 VMs per cell.
func randomWork(rng *rand.Rand, n, m int) [][]int {
	work := make([][]int, n)
	for i := range work {
		work[i] = make([]int, m)
		for j := range work[i] {
			work[i][j] = rng.Intn(5)
		}
	}
	return work
}

// placeBoth places r on work with the pruned and the Exhaustive scan and
// fails the test unless both return byte-identical allocations or both
// refuse r as ErrInsufficient. It returns the allocation, nil when r was
// refused.
func placeBoth(t *testing.T, tp *topology.Topology, work [][]int, r model.Request, pruned *OnlineHeuristic, exhaustive *Exhaustive, trial, step int) affinity.Allocation {
	t.Helper()
	got, gotErr := pruned.Place(tp, work, r)
	want, wantErr := exhaustive.Place(tp, work, r)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("trial %d step %d: pruned err %v, exhaustive err %v", trial, step, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrInsufficient) || !errors.Is(wantErr, ErrInsufficient) {
			t.Fatalf("trial %d step %d: unexpected errors %v / %v", trial, step, gotErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		gd, gk := got.Distance(tp)
		wd, wk := want.Distance(tp)
		t.Fatalf("trial %d step %d: allocations differ\npruned    (dc=%v center=%d): %v\nexhaustive (dc=%v center=%d): %v\nrequest %v",
			trial, step, gd, gk, got, wd, wk, want, r)
	}
	return got
}

// deplete takes alloc out of work.
func deplete(work [][]int, alloc affinity.Allocation) {
	for i := range alloc {
		for j, k := range alloc[i] {
			work[i][j] -= k
		}
	}
}

// sweepEvents reruns the slow path of a feasible request r on l and
// reports whether the bound pass stopped at the floor and the sweep then
// filled rack caps the pass never computed, and whether the winner's
// rack absorbs nothing of r, i.e. a purely remote build won.
func sweepEvents(t *testing.T, tp *topology.Topology, l [][]int, r model.Request) (lazy, remote bool) {
	t.Helper()
	idx, err := affinity.NewTierIndex(tp, l)
	if err != nil {
		t.Fatal(err)
	}
	T := model.Sum(r)
	if idx.FirstCover(r) >= 0 {
		return false, false
	}
	s := newScanScratch(tp, idx.Types())
	s.dst = new(affinity.SparseAlloc)
	M := s.scanBound(idx, r, T, T-1)
	seen := func() int {
		k := 0
		for _, g := range s.capSeen {
			if g == s.capGen {
				k++
			}
		}
		return k
	}
	before := seen()
	winner := s.sweep(idx, r, T, T-1, M)
	if winner < 0 {
		t.Fatalf("no center achieves bound %v for %v", M, r)
	}
	lazy = M == affinity.TierSum(tp.Distances(), T-1, T, T, T) && seen() > before
	return lazy, s.rackCapOf(idx, tp.RackOf(winner)) == 0
}
