package placement

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// FuzzPlaceRequest drives Algorithm 1 with arbitrary plant shapes,
// capacity matrices, and requests. The matrix width is drawn apart from
// the request's, so malformed shapes are fuzzed too; zeroCloud empties
// one cloud's capacity (0 leaves every cloud as drawn), and scramble
// re-imports the plant with permuted node and rack IDs (scramblePlant).
// Invariants (DESIGN.md §10): Place never panics, never mutates the
// capacity snapshot L, rejects a width mismatch with an error, and every
// successful allocation (a) satisfies the request within L, (b) equals
// the ExhaustiveCenters reference allocation, with PlaceSparse on a tier
// index returning that allocation's exact DC bits and center, and (c)
// has a DC(C) on which the tier-aggregated DistanceEvaluator and the
// plain row-scan oracle Allocation.DistanceFrom agree exactly, including
// the lowest-ID center tie-break.
func FuzzPlaceRequest(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(10), uint8(4), uint8(1), uint8(0), false, []byte{3, 2})
	f.Add(int64(7), uint8(2), uint8(2), uint8(3), uint8(6), uint8(2), uint8(0), false, []byte{1, 0, 5})
	f.Add(int64(42), uint8(3), uint8(4), uint8(5), uint8(1), uint8(0), uint8(0), false, []byte{9})
	f.Add(int64(0), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint8(0), false, []byte{0, 0})
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(5), uint8(2), uint8(0), false, []byte{1, 1})
	f.Add(int64(5), uint8(2), uint8(1), uint8(3), uint8(5), uint8(0), uint8(0), false, []byte{2, 1})
	// Cloud 0 holds no capacity: the sweep settles it with the shared
	// purely remote build.
	f.Add(int64(11), uint8(2), uint8(3), uint8(4), uint8(4), uint8(1), uint8(1), false, []byte{6, 5})
	f.Add(int64(13), uint8(2), uint8(3), uint8(4), uint8(4), uint8(1), uint8(1), true, []byte{6, 5})

	f.Fuzz(func(t *testing.T, seed int64, clouds, racksPer, nodesPer, capMax, width, zeroCloud uint8, scramble bool, reqBytes []byte) {
		nc := 1 + int(clouds)%5
		nr := 1 + int(racksPer)%4
		nn := 1 + int(nodesPer)%5
		tp, err := topology.Uniform(nc, nr, nn, topology.DefaultDistances())
		if err != nil {
			t.Fatalf("Uniform(%d,%d,%d): %v", nc, nr, nn, err)
		}
		rng := rand.New(rand.NewSource(seed))
		if scramble {
			tp = scramblePlant(t, rng, tp)
		}
		n := tp.Nodes()
		if len(reqBytes) == 0 {
			reqBytes = []byte{0}
		}
		if len(reqBytes) > 4 {
			reqBytes = reqBytes[:4]
		}
		r := make(model.Request, len(reqBytes))
		for j, b := range reqBytes {
			r[j] = int(b % 11)
		}
		m := 1 + int(width)%4
		empty := int(zeroCloud)%(nc+1) - 1 // -1: no cloud emptied
		l := make([][]int, n)
		snapshot := make([][]int, n)
		for i := range l {
			l[i] = make([]int, m)
			snapshot[i] = make([]int, m)
			for j := range l[i] {
				if v := rng.Intn(1 + int(capMax)%8); tp.CloudOf(topology.NodeID(i)) != empty {
					l[i][j] = v
				}
				snapshot[i][j] = l[i][j]
			}
		}

		alloc, err := (&OnlineHeuristic{}).Place(tp, l, r)

		// L is a read-only snapshot in all outcomes.
		for i := range l {
			for j := range l[i] {
				if l[i][j] != snapshot[i][j] {
					t.Fatalf("Place mutated L[%d][%d]: %d -> %d", i, j, snapshot[i][j], l[i][j])
				}
			}
		}
		if m != len(r) {
			if err == nil || errors.Is(err, ErrInsufficient) {
				t.Fatalf("width-%d request on a width-%d matrix: (%v, %v), want a shape error", len(r), m, alloc, err)
			}
			return
		}
		if err != nil {
			if !errors.Is(err, ErrInsufficient) {
				t.Fatalf("well-shaped request rejected with %v, want ErrInsufficient or success", err)
			}
			return // infeasible: acceptable
		}
		// (a) The allocation satisfies r without exceeding any L_ij.
		if verr := alloc.Validate(r, l); verr != nil {
			t.Fatalf("accepted allocation violates capacity/request: %v\nalloc %v\nreq %v", verr, alloc, r)
		}
		// (b) The pruned scan places exactly as the exhaustive reference,
		// and the indexed entry point reports the reference's DC and center.
		want, werr := (&OnlineHeuristic{Policy: ExhaustiveCenters}).Place(tp, l, r)
		if werr != nil {
			t.Fatalf("exhaustive reference failed where the scan placed: %v", werr)
		}
		if !reflect.DeepEqual(alloc, want) {
			t.Fatalf("scan and exhaustive allocations differ\nscan       %v\nexhaustive %v\nreq %v", alloc, want, r)
		}
		idx, err := affinity.NewTierIndex(tp, l)
		if err != nil {
			t.Fatal(err)
		}
		var sp affinity.SparseAlloc
		gotDC, gotCenter, err := (&OnlineHeuristic{}).PlaceSparse(idx, r, &sp)
		if err != nil {
			t.Fatalf("PlaceSparse failed where Place succeeded: %v", err)
		}
		wantDC, wantCenter := want.Distance(tp)
		if !reflect.DeepEqual(sp.ToDense(), want) || math.Float64bits(gotDC) != math.Float64bits(wantDC) || gotCenter != wantCenter {
			t.Fatalf("PlaceSparse = (%v, %d, %v), exhaustive (%v, %d, %v)\nreq %v", gotDC, gotCenter, sp.ToDense(), wantDC, wantCenter, want, r)
		}
		// (c) Tier-aggregated evaluator vs row-scan oracle. The DC(C)
		// value is Definition 1's minimum over every candidate center;
		// the reported center tie-breaks toward the lowest ID among
		// hosting nodes (where the minimum is always attained).
		ev := affinity.NewDistanceEvaluator(tp, alloc)
		bestD := 0.0
		for k := 0; k < n; k++ {
			id := topology.NodeID(k)
			oracle := alloc.DistanceFrom(tp, id)
			if got := ev.DistanceFrom(id); got != oracle {
				t.Fatalf("DistanceFrom(%d) = %v, row-scan oracle %v\nalloc %v", k, got, oracle, alloc)
			}
			if k == 0 || oracle < bestD {
				bestD = oracle
			}
		}
		bestK := topology.NodeID(-1)
		for _, id := range alloc.HostingNodes() {
			if alloc.DistanceFrom(tp, id) == bestD {
				bestK = id
				break
			}
		}
		if alloc.IsEmpty() {
			bestD, bestK = 0, -1
		}
		gotD, gotK := ev.Distance()
		if gotD != bestD || gotK != bestK {
			t.Fatalf("Distance() = (%v, %d), oracle (%v, %d)\nalloc %v", gotD, gotK, bestD, bestK, alloc)
		}
	})
}
