// Package bench is the paper-reproduction benchmark harness: one
// benchmark per table and figure of the evaluation (regenerating the
// reported rows/series), plus the ablation benchmarks called out in
// DESIGN.md and micro-benchmarks of the hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/experiments"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/lp"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

const benchSeed = 2012

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// BenchmarkTableI regenerates the instance catalog of Table I.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableII regenerates the capacity example of Table II.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.TableII(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 2–6 (simulation study)
// ---------------------------------------------------------------------------

// BenchmarkFig2 regenerates Fig. 2: heuristic (best-center) distance vs
// the same allocations under a random central node, 20 requests on the
// 3×10 plant.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig3 regenerates Fig. 3: the central node chosen per request.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 regenerates Fig. 4: one allocation's distance as the
// central node sweeps every hosting node.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: online heuristic vs global
// sub-optimization, Normal request scenario.
func BenchmarkFig5(b *testing.B) {
	var lastImprovement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if res.GlobalTotal > res.OnlineTotal+1e-9 {
			b.Fatal("global worse than online")
		}
		lastImprovement = res.ImprovementPct
	}
	b.ReportMetric(lastImprovement, "improvement-%")
}

// BenchmarkFig6 regenerates Fig. 6: the Small request scenario, where the
// paper reports the global algorithm's largest gains.
func BenchmarkFig6(b *testing.B) {
	var lastImprovement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if res.GlobalTotal > res.OnlineTotal+1e-9 {
			b.Fatal("global worse than online")
		}
		lastImprovement = res.ImprovementPct
	}
	b.ReportMetric(lastImprovement, "improvement-%")
}

// ---------------------------------------------------------------------------
// Figures 7–8 (MapReduce experiment)
// ---------------------------------------------------------------------------

// BenchmarkFig7 regenerates Fig. 7: WordCount runtime (32 maps, 1 reduce)
// on four equal-capability clusters of increasing distance, balanced
// input. The runtime series must be monotone in distance.
func BenchmarkFig7(b *testing.B) {
	var spreadPenalty float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7and8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for r := 1; r < len(res.Rows); r++ {
			if res.Rows[r-1].RuntimeSec > res.Rows[r].RuntimeSec {
				b.Fatalf("runtime not monotone at %s", res.Rows[r].Topology)
			}
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		spreadPenalty = (last.RuntimeSec - first.RuntimeSec) / first.RuntimeSec * 100
	}
	b.ReportMetric(spreadPenalty, "spread-penalty-%")
}

// BenchmarkFig8 regenerates Fig. 8: the data/shuffle locality counters of
// the same four clusters (skewed-input variant, which reproduces the
// paper's locality-driven runtime inversion).
func BenchmarkFig8(b *testing.B) {
	var inversions float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7and8Skewed(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if inv, _, _ := res.HasInversion(); inv {
			inversions = 1
		}
		// Remote shuffle volume must grow with distance in every run.
		for r := 1; r < len(res.Rows); r++ {
			if res.Rows[r-1].ShuffleRemoteMB > res.Rows[r].ShuffleRemoteMB {
				b.Fatalf("remote shuffle not monotone at %s", res.Rows[r].Topology)
			}
		}
	}
	b.ReportMetric(inversions, "anomaly-present")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// benchSetup draws a placement instance on the paper plant.
func benchSetup(b *testing.B) (*topology.Topology, [][]int, []model.Request) {
	b.Helper()
	topo := topology.PaperSimPlant()
	sim, err := workload.NewPaperSimulation(benchSeed, workload.Normal)
	if err != nil {
		b.Fatal(err)
	}
	return topo, sim.Capacities, sim.Requests
}

// BenchmarkAblationTransferFixpoint compares Algorithm 2 run for a single
// exchange pass (the paper) against run-to-fixpoint.
func BenchmarkAblationTransferFixpoint(b *testing.B) {
	topo, caps, reqs := benchSetup(b)
	for _, tc := range []struct {
		name   string
		passes int
	}{
		{"single-pass", 1},
		{"fixpoint", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := &placement.GlobalSubOpt{MaxPasses: tc.passes}
			var total float64
			for i := 0; i < b.N; i++ {
				res, err := g.PlaceBatch(topo, caps, reqs)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(total, "total-distance")
		})
	}
}

// BenchmarkAblationExactSolvers compares Algorithm 1, which solves SD
// exactly (DESIGN.md §9), against the paper's program solved per center
// by the simplex on the same instance — identical objective values, very
// different cost.
func BenchmarkAblationExactSolvers(b *testing.B) {
	topo, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		b.Fatal(err)
	}
	caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), 2, workload.DefaultInventoryConfig())
	if err != nil {
		b.Fatal(err)
	}
	req := model.Request{4, 2}
	b.Run("algorithm-1", func(b *testing.B) {
		h := &placement.OnlineHeuristic{}
		for i := 0; i < b.N; i++ {
			if _, err := h.Place(topo, caps, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transportation-simplex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sdexact.SolveSDLP(topo, caps, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineComparison regenerates the strategy comparison table.
func BenchmarkBaselineComparison(b *testing.B) {
	var onlineTotal float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BaselineComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		onlineTotal = res.Rows[0].Total
	}
	b.ReportMetric(onlineTotal, "online-total-distance")
}

// BenchmarkSelectivitySweep regenerates the supplementary sweep: affinity
// benefit as a function of shuffle selectivity.
func BenchmarkSelectivitySweep(b *testing.B) {
	var heavyBenefit float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SelectivitySweep(benchSeed, []float64{0.01, 0.5, 1.5})
		if err != nil {
			b.Fatal(err)
		}
		heavyBenefit = res.Rows[len(res.Rows)-1].SpeedupPct
	}
	b.ReportMetric(heavyBenefit, "heavy-speedup-%")
}

// BenchmarkAblationMigration compares the operating cloud with and
// without affinity-aware live migration on a contended workload.
func BenchmarkAblationMigration(b *testing.B) {
	topo := topology.PaperSimPlant()
	reqs, err := workload.RandomRequests(benchSeed, 40, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		b.Fatal(err)
	}
	arrivals := workload.DefaultArrivalConfig()
	arrivals.MeanInterarrival = 5
	arrivals.MeanHold = 300
	timed, err := workload.TimedRequests(benchSeed+1, reqs, arrivals)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		migrate bool
	}{
		{"placement-only", false},
		{"with-migration", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var final float64
			for i := 0; i < b.N; i++ {
				caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), 3, workload.InventoryConfig{MaxPerType: 1})
				if err != nil {
					b.Fatal(err)
				}
				inv, err := inventory.NewFromMatrix(caps)
				if err != nil {
					b.Fatal(err)
				}
				sim, err := cloudsim.New(topo, inv, &placement.OnlineHeuristic{}, cloudsim.Config{Migrate: tc.migrate})
				if err != nil {
					b.Fatal(err)
				}
				m, err := sim.RunStream(model.NewSliceSource(timed))
				if err != nil {
					b.Fatal(err)
				}
				final = m.FinalDistanceSum
			}
			b.ReportMetric(final, "final-distance")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the hot paths
// ---------------------------------------------------------------------------

// BenchmarkPlaceScale measures one Algorithm 1 placement on plants from
// the paper's 1×3×10 up to a 100×100×100 (1 000 000-node) datacenter,
// comparing the tier-aggregated center scan (pruned, the default) against
// the exhaustive-center reference path. Both arms return bit-identical
// allocations; only the scan cost differs — O(clouds + surviving racks)
// versus O(n) builds. The request is sized to exercise the center scan
// rather than the single-node fast path: nodesPerRack VMs of each type,
// about half a rack, so every build ends inside its rack. The spill arms
// ask for 4·nodesPerRack of each type, about two racks' worth, so every
// build leaves its rack: the regime behind the paper's O(n²m) bound.
// Their exhaustive reference runs only up to 800 nodes (6.1 s per op at
// 16k).
//
// Every pruned arm runs against a persistent tier index built once,
// through PlaceSparse — the steady-state form the service and the
// simulators use — so it times the scan alone: a dense Place would
// rebuild the index per request (~790 kB at 16k nodes, 3M cells at 1M).
// The exhaustive arms stay on dense Place, the reference as callers see
// it, and are skipped at the million-node size (hours per op). The
// 10x40x40 plant adds the miss arm (benchPlaceMisses), which times the
// slow path on a loaded plant alone.
func BenchmarkPlaceScale(b *testing.B) {
	for _, tc := range []struct {
		name                        string
		clouds, racks, nodesPerRack int
	}{
		{"1x3x10", 1, 3, 10},
		{"2x20x20", 2, 20, 20},
		{"10x40x40", 10, 40, 40},
		{"100x100x100", 100, 100, 100},
	} {
		nodes := tc.clouds * tc.racks * tc.nodesPerRack
		if nodes >= 10000 && testing.Short() {
			continue // the 16 000-node and larger plants are too heavy for -short runs
		}
		const types = 3
		// The plant is built by the first of its arms that runs, so a
		// -bench pattern that selects none of them never builds it.
		var (
			topo *topology.Topology
			caps [][]int
		)
		plant := func(b *testing.B) {
			if topo != nil {
				return
			}
			var err error
			if topo, err = topology.Uniform(tc.clouds, tc.racks, tc.nodesPerRack, topology.DefaultDistances()); err != nil {
				b.Fatal(err)
			}
			if caps, err = workload.RandomCapacities(benchSeed, nodes, types, workload.DefaultInventoryConfig()); err != nil {
				b.Fatal(err)
			}
		}
		for _, arm := range []struct {
			name       string
			exhaustive bool
			perRack    int // VMs requested per type, in multiples of nodesPerRack
			maxExh     int // an exhaustive arm's largest plant
		}{
			{"pruned", false, 1, 0},
			{"exhaustive", true, 1, 16000}, // 1M nodes: hours per op
			{"spill/pruned", false, 4, 0},
			{"spill/exhaustive", true, 4, 800},
		} {
			if arm.exhaustive && nodes > arm.maxExh {
				continue
			}
			req := make(model.Request, types)
			for j := range req {
				req[j] = arm.perRack * tc.nodesPerRack
			}
			b.Run(fmt.Sprintf("%s/%s", tc.name, arm.name), func(b *testing.B) {
				plant(b)
				if arm.exhaustive {
					p := &placement.Exhaustive{}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := p.Place(topo, caps, req); err != nil {
							b.Fatal(err)
						}
					}
					return
				}
				h := &placement.OnlineHeuristic{}
				idx, err := affinity.NewTierIndex(topo, caps)
				if err != nil {
					b.Fatal(err)
				}
				var sp affinity.SparseAlloc
				if _, _, err := h.PlaceSparse(idx, req, &sp); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := h.PlaceSparse(idx, req, &sp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if tc.clouds == 10 {
			b.Run(tc.name+"/miss", func(b *testing.B) {
				plant(b)
				benchPlaceMisses(b, topo)
			})
		}
	}
}

// placeMisses is how many fast-path misses the miss arm replays per op.
const placeMisses = 1000

// benchPlaceMisses times Algorithm 1's slow path alone, on the plant of
// the repo benchmark's svc-16k workload (benchmark/): capacities of at
// most two VMs per type and node, filled to 60% of its VM slots with
// open-loop-sized requests through PlaceSparse and AllocateList. That
// workload's clients cycle place, grow, shrink and release, and each
// cycle gives back what it took, so with one client every place meets
// the post-fill plant. The arm keeps the first placeMisses requests of a
// client's open-loop stream that no single node covers there, and one op
// places all of them without committing any, so ns/op is the slow path
// of placeMisses requests, comparable run to run. dc-sum and center-sum
// add up their DCs and central nodes; a change that only touches speed
// must not move them.
func benchPlaceMisses(b *testing.B, topo *topology.Topology) {
	const types = 3
	caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		b.Fatal(err)
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := inv.AttachTierIndex(topo)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultOpenLoopConfig()
	cfg.Types = types
	fill, err := workload.NewOpenLoop(benchSeed+1, 1<<30, cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := &placement.OnlineHeuristic{}
	var sp affinity.SparseAlloc
	for used, target := 0, int(0.6*float64(model.Sum(idx.Avail()))); used < target; {
		r, _, err := fill.Next()
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := h.PlaceSparse(idx, r.Vector, &sp); err != nil {
			b.Fatal(err)
		}
		if err := inv.AllocateList(sp.Entries); err != nil {
			b.Fatal(err)
		}
		used += r.Vector.TotalVMs()
	}
	client, err := workload.NewOpenLoop(benchSeed+100, 1<<30, cfg)
	if err != nil {
		b.Fatal(err)
	}
	misses := make([]model.Request, 0, placeMisses)
	for len(misses) < placeMisses {
		r, _, err := client.Next()
		if err != nil {
			b.Fatal(err)
		}
		if idx.FirstCover(r.Vector) < 0 && inv.CanSatisfy(r.Vector) {
			misses = append(misses, r.Vector)
		}
	}
	replay := func() (dcSum, centerSum float64) {
		for _, r := range misses {
			dc, center, err := h.PlaceSparse(idx, r, &sp)
			if err != nil {
				b.Fatal(err)
			}
			dcSum += dc
			centerSum += float64(center)
		}
		return dcSum, centerSum
	}
	dcSum, centerSum := replay() // grows the placer's scratch and sp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(dcSum, "dc-sum")
	b.ReportMetric(centerSum, "center-sum")
}

// BenchmarkExchangeScale times Algorithm 2 and the migration planner from
// the paper's 1×3×10 plant to 1,024 nodes: PlaceBatch (to fixpoint) on a
// 20-request Normal batch, and Plan on that batch's online result
// (PlaceSequential), on capacities of at most one VM per type and node.
// Both walk the exchange neighbourhood from the clusters' hosting nodes,
// so the swap search costs hosts(a)·hosts(b)·m per cluster pair, not
// n²·m. total-distance and plan-gain must not move with a change that
// only touches speed.
func BenchmarkExchangeScale(b *testing.B) {
	for _, tc := range []struct {
		name                        string
		clouds, racks, nodesPerRack int
	}{
		{"1x3x10", 1, 3, 10},
		{"2x8x16", 2, 8, 16},
		{"4x16x16", 4, 16, 16},
	} {
		topo, err := topology.Uniform(tc.clouds, tc.racks, tc.nodesPerRack, topology.DefaultDistances())
		if err != nil {
			b.Fatal(err)
		}
		const types = 3
		caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.InventoryConfig{MaxPerType: 1})
		if err != nil {
			b.Fatal(err)
		}
		reqs, err := workload.RandomRequests(benchSeed, 20, types, workload.Normal, workload.DefaultRequestConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/place-batch", func(b *testing.B) {
			g := &placement.GlobalSubOpt{}
			var total float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := g.PlaceBatch(topo, caps, reqs)
				if err != nil {
					b.Fatal(err)
				}
				total = res.Total
			}
			b.ReportMetric(total, "total-distance")
		})
		b.Run(tc.name+"/plan", func(b *testing.B) {
			online, err := placement.PlaceSequential(topo, caps, reqs, &placement.OnlineHeuristic{})
			if err != nil {
				b.Fatal(err)
			}
			residual := make([][]int, len(caps))
			for i := range caps {
				residual[i] = append([]int(nil), caps[i]...)
			}
			for _, a := range online.Allocs {
				for i := range a {
					for j, k := range a[i] {
						residual[i][j] -= k
					}
				}
			}
			p := &migration.Planner{}
			var gain float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := p.Plan(topo, residual, online.Allocs)
				if err != nil {
					b.Fatal(err)
				}
				gain = plan.TotalGain
			}
			b.ReportMetric(gain, "plan-gain")
		})
	}
}

// BenchmarkOnlinePlace measures a single Algorithm 1 placement on the
// paper plant.
func BenchmarkOnlinePlace(b *testing.B) {
	topo, caps, reqs := benchSetup(b)
	h := &placement.OnlineHeuristic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Place(topo, caps, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplex measures the LP substrate on a transportation-shaped
// instance of growing size.
func BenchmarkSimplex(b *testing.B) {
	for _, n := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(benchSeed))
			build := func() *lp.Problem {
				p := lp.NewProblem(n * n)
				obj := make([]float64, n*n)
				for i := range obj {
					obj[i] = float64(1 + rng.Intn(9))
				}
				if err := p.SetObjective(obj); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					vars := make([]int, n)
					coef := make([]float64, n)
					for j := 0; j < n; j++ {
						vars[j] = i*n + j
						coef[j] = 1
					}
					if err := p.AddSparseConstraint(vars, coef, lp.LE, float64(5+rng.Intn(5))); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < n; j++ {
					vars := make([]int, n)
					coef := make([]float64, n)
					for i := 0; i < n; i++ {
						vars[i] = i*n + j
						coef[i] = 1
					}
					if err := p.AddSparseConstraint(vars, coef, lp.EQ, 2); err != nil {
						b.Fatal(err)
					}
				}
				return p
			}
			prob := build()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := prob.Solve()
				if err != nil || s.Status != lp.Optimal {
					b.Fatalf("status %v err %v", s.Status, err)
				}
			}
		})
	}
}
