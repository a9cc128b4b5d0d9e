package affinity

import (
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// randomPlant builds an irregular topology: 1–3 clouds, each with 1–4
// racks of 1–5 nodes, so rack/cloud aggregate bookkeeping is exercised on
// non-uniform shapes, not just the paper's symmetric plant.
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
	return tp
}

// randomAlloc scatters VMs over random nodes; ~1 in 8 trials stays empty
// to cover the degenerate case.
func randomAlloc(rng *rand.Rand, n, m int) Allocation {
	a := NewAllocation(n, m)
	if rng.Intn(8) == 0 {
		return a
	}
	vms := 1 + rng.Intn(4*n)
	for v := 0; v < vms; v++ {
		a.Add(topology.NodeID(rng.Intn(n)), model.VMTypeID(rng.Intn(m)))
	}
	return a
}

// TestTierAggregatedDistanceProperty checks the tier-aggregated evaluator
// against the untouched per-row oracle Allocation.DistanceFrom — a plain
// Σ_i w_i·D_ik scan that never saw the aggregation rewrite. Distance and
// every MovePreview must equal the brute-force minimum over ALL nodes
// with the lowest-ID tie-break (integer tiers, so exactly), confirming
// both the O(1) TierSum pricing and the restriction of the scan to
// hosting nodes.
func TestTierAggregatedDistanceProperty(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		a := randomAlloc(rng, n, m)
		ev := NewDistanceEvaluator(tp, a)

		// Brute-force Definition 1 over every candidate center.
		bestD, bestK := 0.0, topology.NodeID(-1)
		if a.TotalVMs() > 0 {
			for k := 0; k < n; k++ {
				want := a.DistanceFrom(tp, topology.NodeID(k))
				if bestK < 0 || want < bestD {
					bestD, bestK = want, topology.NodeID(k)
				}
			}
		}
		gotD, gotK := ev.Distance()
		if gotD != bestD || gotK != bestK {
			t.Fatalf("trial %d: Distance() = (%v, %d), brute force (%v, %d)\nalloc %v",
				trial, gotD, gotK, bestD, bestK, a)
		}

		// Move previews must agree with the oracle minimum after the move.
		if a.TotalVMs() == 0 {
			continue
		}
		for probe := 0; probe < 10; probe++ {
			hosts := a.HostingNodes()
			p := hosts[rng.Intn(len(hosts))]
			q := topology.NodeID(rng.Intn(n))
			prevD, prevK := ev.MovePreview(p, q)
			vt := model.VMTypeID(-1)
			for j := 0; j < m; j++ {
				if a[p][j] > 0 {
					vt = model.VMTypeID(j)
					break
				}
			}
			a.Remove(p, vt)
			a.Add(q, vt)
			wantD, wantK := 0.0, topology.NodeID(-1)
			if a.TotalVMs() > 0 {
				for k := 0; k < n; k++ {
					d := a.DistanceFrom(tp, topology.NodeID(k))
					if wantK < 0 || d < wantD {
						wantD, wantK = d, topology.NodeID(k)
					}
				}
			}
			if prevD != wantD || prevK != wantK {
				t.Fatalf("trial %d probe %d: MovePreview(%d,%d) = (%v, %d), oracle (%v, %d)",
					trial, probe, p, q, prevD, prevK, wantD, wantK)
			}
			// Revert so the evaluator still matches a.
			a.Remove(q, vt)
			a.Add(p, vt)
		}
	}
}
