package placement

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/topology/topotest"
)

// FuzzPlaceRequest drives Algorithm 1 with arbitrary plant shapes,
// capacity matrices, and requests. The matrix width is drawn apart from
// the request's, so malformed shapes are fuzzed too; zeroCloud empties
// one cloud's capacity (0 leaves every cloud as drawn), prefill places
// up to 15 requests through PlaceSparse and AllocateList before the
// checked one (prefillPlant), and scramble re-imports the plant with
// permuted node and rack IDs (topotest.Scramble).
// Invariants (DESIGN.md §10): Place never panics, never mutates the
// capacity snapshot L, rejects a width mismatch with an error, and every
// successful allocation (a) satisfies the request within L, (b) equals
// the Exhaustive reference allocation, with PlaceSparse on a tier
// index returning that allocation's exact DC bits and center, (c) has a
// DC(C) on which the tier-aggregated DistanceEvaluator and the plain
// row-scan oracle Allocation.DistanceFrom agree exactly, including the
// lowest-ID center tie-break, and (d) comes from a scan whose bounded
// builds never abandon a build that reaches its bound
// (checkBoundedBuilds).
func FuzzPlaceRequest(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(10), uint8(4), uint8(1), uint8(0), uint8(0), false, []byte{3, 2})
	f.Add(int64(7), uint8(2), uint8(2), uint8(3), uint8(6), uint8(2), uint8(0), uint8(0), false, []byte{1, 0, 5})
	f.Add(int64(42), uint8(3), uint8(4), uint8(5), uint8(1), uint8(0), uint8(0), uint8(0), false, []byte{9})
	f.Add(int64(0), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint8(0), uint8(0), false, []byte{0, 0})
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(5), uint8(2), uint8(0), uint8(0), false, []byte{1, 1})
	f.Add(int64(5), uint8(2), uint8(1), uint8(3), uint8(5), uint8(0), uint8(0), uint8(0), false, []byte{2, 1})
	// Cloud 0 holds no capacity: the sweep settles it with the shared
	// purely remote build.
	f.Add(int64(11), uint8(2), uint8(3), uint8(4), uint8(4), uint8(1), uint8(1), uint8(0), false, []byte{6, 5})
	f.Add(int64(13), uint8(2), uint8(3), uint8(4), uint8(4), uint8(1), uint8(1), uint8(0), true, []byte{6, 5})
	// Pre-filled plants whose sweep abandons test builds. In the first,
	// an abandoned lowest-node build leaves its rack to the in-rack tie
	// test, which finds the winner; the second is scrambled, with cloud 0
	// empty, and holds builds whose floor meets their own DC exactly. In
	// the last two, some build reaches its DC only through later takes in
	// a rack it already touched: one larger than the rack's first take
	// (4, 9, 0, 0), or any at all (4, 4, 4, 4).
	f.Add(int64(-65), uint8(4), uint8(3), uint8(4), uint8(2), uint8(3), uint8(2), uint8(12), false, []byte{1, 5, 4, 4})
	f.Add(int64(13), uint8(4), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(13), true, []byte{4, 4})
	f.Add(int64(-134), uint8(3), uint8(2), uint8(3), uint8(5), uint8(3), uint8(0), uint8(13), false, []byte{4, 9, 0, 0})
	f.Add(int64(-170), uint8(3), uint8(2), uint8(1), uint8(6), uint8(3), uint8(0), uint8(8), false, []byte{4, 4, 4, 4})

	f.Fuzz(func(t *testing.T, seed int64, clouds, racksPer, nodesPer, capMax, width, zeroCloud, prefill uint8, scramble bool, reqBytes []byte) {
		nc := 1 + int(clouds)%5
		nr := 1 + int(racksPer)%4
		nn := 1 + int(nodesPer)%5
		tp, err := topology.Uniform(nc, nr, nn, topology.DefaultDistances())
		if err != nil {
			t.Fatalf("Uniform(%d,%d,%d): %v", nc, nr, nn, err)
		}
		rng := rand.New(rand.NewSource(seed))
		if scramble {
			tp = topotest.Scramble(t, rng, tp)
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
		for i := range l {
			l[i] = make([]int, m)
			for j := range l[i] {
				if v := rng.Intn(1 + int(capMax)%8); tp.CloudOf(topology.NodeID(i)) != empty {
					l[i][j] = v
				}
			}
		}
		l = prefillPlant(t, rng, tp, l, int(prefill)%16, nn)
		snapshot := make([][]int, n)
		for i := range l {
			snapshot[i] = append([]int(nil), l[i]...)
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
		want, werr := (&Exhaustive{}).Place(tp, l, r)
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
			if oracle := alloc.DistanceFrom(tp, topology.NodeID(k)); k == 0 || oracle < bestD {
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
		if alloc.TotalVMs() == 0 {
			bestD, bestK = 0, -1
		}
		gotD, gotK := ev.Distance()
		if gotD != bestD || gotK != bestK {
			t.Fatalf("Distance() = (%v, %d), oracle (%v, %d)\nalloc %v", gotD, gotK, bestD, bestK, alloc)
		}
		// (d) The floors that abandon the sweep's test builds hold.
		checkBoundedBuilds(t, idx, r)
	})
}

// prefillPlant places k requests of l's width through PlaceSparse on an
// inventory over l and commits each with AllocateList, as cloudsim and
// the service do, then returns what remains. Each request asks for up
// to two racks' worth of every type at the plant's mean free capacity,
// so a few of them saturate racks and whole clouds: the prefixes where
// the sweep shares remote builds and its test builds are abandoned. A
// request that does not fit is skipped.
func prefillPlant(t *testing.T, rng *rand.Rand, tp *topology.Topology, l [][]int, k, nodesPerRack int) [][]int {
	t.Helper()
	if k == 0 {
		return l
	}
	inv, err := inventory.NewFromMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := inv.AttachTierIndex(tp)
	if err != nil {
		t.Fatal(err)
	}
	h := &OnlineHeuristic{}
	var sp affinity.SparseAlloc
	for range k {
		req := make(model.Request, len(l[0]))
		for j := range req {
			req[j] = rng.Intn(1 + 2*nodesPerRack*model.Sum(idx.Avail())/max(1, tp.Nodes()*len(req)))
		}
		if _, _, err := h.PlaceSparse(idx, req, &sp); err != nil {
			if errors.Is(err, ErrInsufficient) {
				continue
			}
			t.Fatalf("prefill %v: %v", req, err)
		}
		if err := inv.AllocateList(sp.Entries); err != nil {
			t.Fatalf("prefill %v: commit: %v", req, err)
		}
	}
	return inv.Remaining()
}

// checkBoundedBuilds tests the bound the sweep's test builds run under
// directly, on every center rather than only on the optimum M: with the
// caps scanBound sets for r, the build around each node, bounded by its own
// unbounded DC, must run to completion and leave the same allocation. A
// floor that overestimates any hosting node's final price abandons one
// of these builds. The floors hold only once the fast path has failed,
// so a request some node covers is not checked.
func checkBoundedBuilds(t *testing.T, idx *affinity.TierIndex, r model.Request) {
	t.Helper()
	tp := idx.Topology()
	T := model.Sum(r)
	s := newScanScratch(tp, idx.Types())
	if idx.FirstCover(r) >= 0 || T == 0 {
		return
	}
	s.scanBound(idx, r, T, T-1)
	var free, bounded affinity.SparseAlloc
	for c := range tp.Nodes() {
		center := topology.NodeID(c)
		s.dst = &free
		if !s.buildFull(idx, r, center, math.Inf(1)) {
			t.Fatalf("unbounded build around %d did not cover %v", center, r)
		}
		dc, _ := s.score(tp, tp.Distances(), T)
		s.dst = &bounded
		if !s.buildFull(idx, r, center, dc) {
			t.Fatalf("build around %d abandoned under its own DC %v\nreq %v\nL %v", center, dc, r, idx.Matrix())
		}
		if !reflect.DeepEqual(free.ToDense(), bounded.ToDense()) {
			t.Fatalf("build around %d under bound %v = %v, unbounded %v", center, dc, bounded.ToDense(), free.ToDense())
		}
	}
}

// FuzzReleaseSubset holds the shrink to the brute-force enumeration of
// every removal (checkShrink) on small clusters of uniform or scrambled
// plants. Each byte pair of cellBytes adds one VM (node, type) as its
// own entry, so cells repeat and arrive unsorted; zeroCell inserts an
// empty entry. deltaBytes asks back up to one VM more than a type holds,
// so refused shrinks are fuzzed too. Invariants: victims sum to delta
// per type, no cell goes negative, the DC left is the least any removal
// of delta can leave, and one placer kept across every input returns
// what fresh scratch returns.
func FuzzReleaseSubset(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2), uint8(3), uint8(0), false, false, []byte{0, 0, 1, 0, 4, 0, 5, 0}, []byte{2})
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), uint8(1), true, false, []byte{0, 0, 3, 1, 3, 1, 9, 0, 2, 1}, []byte{1, 1})
	f.Add(int64(3), uint8(2), uint8(3), uint8(1), uint8(2), false, true, []byte{1, 2, 1, 2, 7, 0, 8, 1, 11, 2, 0, 0}, []byte{2, 1, 1})
	f.Add(int64(4), uint8(1), uint8(2), uint8(2), uint8(0), true, false, []byte{0, 0}, []byte{2})
	h := &OnlineHeuristic{} // one placer for every input
	f.Fuzz(func(t *testing.T, seed int64, clouds, racksPer, nodesPer, width uint8, scramble, zeroCell bool, cellBytes, deltaBytes []byte) {
		tp, err := topology.Uniform(1+int(clouds)%3, 1+int(racksPer)%4, 1+int(nodesPer)%4, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		if scramble {
			tp = topotest.Scramble(t, rand.New(rand.NewSource(seed)), tp)
		}
		m := 1 + int(width)%3
		if len(cellBytes) > 24 {
			cellBytes = cellBytes[:24]
		}
		var cells []affinity.VMEntry
		have := make(model.Request, m)
		for i := 0; i+1 < len(cellBytes); i += 2 {
			e := affinity.VMEntry{Node: topology.NodeID(int(cellBytes[i]) % tp.Nodes()), Type: model.VMTypeID(int(cellBytes[i+1]) % m), Count: 1}
			cells = append(cells, e)
			have[e.Type]++
		}
		if zeroCell {
			cells = append(cells, affinity.VMEntry{Node: 0, Type: 0})
		}
		delta := make(model.Request, m)
		for j := range delta {
			if j < len(deltaBytes) {
				delta[j] = int(deltaBytes[j]) % (have[j] + 2)
			}
		}
		checkShrink(t, h, tp, cells, delta)
	})
}
