package placement

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// TestPlacersReuseScratchAcrossShapes drives one OnlineHeuristic, one
// Exhaustive and one GlobalSubOpt across two plants and two type counts,
// interleaving PlaceSparse, PlaceDeltaSparse, ReleaseSubsetSparse, dense
// Place and PlaceBatch so that consecutive calls change the plant, the
// type count or both.
// Each call must return exactly what a fresh placer returns: a placer
// rebuilds the scratch it kept whenever a call's shape differs from the
// last call's, and otherwise reuses it without leaking state.
func TestPlacersReuseScratchAcrossShapes(t *testing.T) {
	type shape struct {
		tp   *topology.Topology
		caps [][]int // the plant's free capacity, for the dense calls
		inv  *inventory.Inventory
		idx  *affinity.TierIndex
	}
	rng := rand.New(rand.NewSource(35))
	var plants []*topology.Topology
	for _, dims := range [][3]int{{2, 3, 4}, {1, 2, 5}} {
		tp, err := topology.Uniform(dims[0], dims[1], dims[2], topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		plants = append(plants, tp)
	}
	// Each step between neighbours changes the plant or the type count,
	// not both.
	var shapes []*shape
	for _, sh := range []struct{ plant, m int }{{0, 2}, {1, 2}, {1, 3}, {0, 3}} {
		tp := plants[sh.plant]
		caps := randCapacity(rng, tp.Nodes(), sh.m, 3)
		inv, err := inventory.NewFromMatrix(cloneMatrix(caps))
		if err != nil {
			t.Fatal(err)
		}
		idx, err := inv.AttachTierIndex(tp)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, &shape{tp: tp, caps: caps, inv: inv, idx: idx})
	}
	request := func(m int) model.Request {
		r := make(model.Request, m)
		for j := range r {
			r[j] = 2 + rng.Intn(4) // past any one node's 3 per type
		}
		return r
	}
	sameSparse := func(a, b affinity.SparseAlloc) bool {
		return a.NumNodes == b.NumNodes && a.NumTypes == b.NumTypes && slices.Equal(a.Entries, b.Entries)
	}
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	// A failed call leaves dst unspecified, so only successes compare it.
	same := func(dc, wdc float64, k, wk topology.NodeID, err, werr error, got, want affinity.SparseAlloc) bool {
		return dc == wdc && k == wk && sameErr(err, werr) && (err != nil || sameSparse(got, want))
	}

	h, ex, g := &OnlineHeuristic{}, &Exhaustive{}, &GlobalSubOpt{}
	var sp, grown affinity.SparseAlloc
	for round := 0; round < 4; round++ {
		order := slices.Clone(shapes)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, sh := range order {
			m := len(sh.caps[0])
			r := request(m)

			var freshSp affinity.SparseAlloc
			dc, k, err := h.PlaceSparse(sh.idx, r, &sp)
			wdc, wk, werr := (&OnlineHeuristic{}).PlaceSparse(sh.idx, r, &freshSp)
			if !same(dc, wdc, k, wk, err, werr, sp, freshSp) {
				t.Fatalf("round %d, %d nodes, %d types: PlaceSparse(%v) = %v (dc %v, center %d, err %v), fresh placer %v (dc %v, center %d, err %v)",
					round, sh.tp.Nodes(), m, r, sp, dc, k, err, freshSp, wdc, wk, werr)
			}
			if err == nil {
				// Grow the placed cluster: the grow seeds the kept tallies.
				base := slices.Clone(sp.Entries)
				if err := sh.inv.AllocateList(base); err != nil {
					t.Fatal(err)
				}
				delta := request(m)
				var freshGrown affinity.SparseAlloc
				dc, k, err := h.PlaceDeltaSparse(sh.idx, base, delta, &grown)
				wdc, wk, werr := (&OnlineHeuristic{}).PlaceDeltaSparse(sh.idx, base, delta, &freshGrown)
				if !same(dc, wdc, k, wk, err, werr, grown, freshGrown) {
					t.Fatalf("round %d, %d nodes, %d types: PlaceDeltaSparse(%v) = %v (dc %v, center %d, err %v), fresh placer %v (dc %v, center %d, err %v)",
						round, sh.tp.Nodes(), m, delta, grown, dc, k, err, freshGrown, wdc, wk, werr)
				}
				// Shrink the cluster, grown when the grow fit, by the
				// placed request.
				cluster := base
				if err == nil {
					cluster = append(slices.Clone(base), grown.Entries...)
				}
				victims, err := h.ReleaseSubsetSparse(sh.tp, cluster, r)
				want, werr := (&OnlineHeuristic{}).ReleaseSubsetSparse(sh.tp, cluster, r)
				if !sameErr(err, werr) || !slices.Equal(victims, want) {
					t.Fatalf("round %d, %d nodes, %d types: ReleaseSubsetSparse(%v) of %v = %v (err %v), fresh placer %v (err %v)",
						round, sh.tp.Nodes(), m, r, cluster, victims, err, want, werr)
				}
				if err := sh.inv.ReleaseList(base); err != nil {
					t.Fatal(err)
				}
			} else if !errors.Is(err, ErrInsufficient) {
				t.Fatal(err)
			}

			for _, p := range []struct {
				kept  Placer
				fresh func() Placer
			}{
				{h, func() Placer { return &OnlineHeuristic{} }},
				{ex, func() Placer { return &Exhaustive{} }},
			} {
				got, err := p.kept.Place(sh.tp, sh.caps, r)
				want, werr := p.fresh().Place(sh.tp, sh.caps, r)
				if !sameErr(err, werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, %d nodes, %d types: %s Place(%v) = %v (err %v), fresh placer %v (err %v)",
						round, sh.tp.Nodes(), m, p.kept.Name(), r, got, err, want, werr)
				}
			}

			reqs := []model.Request{request(m), request(m), request(m)}
			got, err := g.PlaceBatch(sh.tp, sh.caps, reqs)
			want, werr := (&GlobalSubOpt{}).PlaceBatch(sh.tp, sh.caps, reqs)
			if !sameErr(err, werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %d nodes, %d types: PlaceBatch(%v) = %+v (err %v), fresh placer %+v (err %v)",
					round, sh.tp.Nodes(), m, reqs, got, err, want, werr)
			}
		}
	}
}
