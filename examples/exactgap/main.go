// Exactgap: measure the paper's algorithms against the exact solvers —
// Algorithm 1 vs the SD optimum (the paper's program solved by the
// simplex, one center at a time), which it must match on every instance,
// and Algorithm 2 vs the exact GSD optimum on small batches. It exits
// non-zero when Algorithm 1 misses the optimum, when the batches' exact
// optimum is 0 (they no longer force a spread), or when Algorithm 2
// prices a batch below its exact optimum.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

func main() {
	// Part 1: Algorithm 1 vs the exact SD optimum over 200 random
	// instances on a 1×3×4 plant. Algorithm 1 is exact (DESIGN.md §9),
	// so a miss is a bug.
	small, err := topology.Uniform(1, 3, 4, topology.DefaultDistances())
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; {
		caps, err := workload.RandomCapacities(rng.Int63(), small.Nodes(), 2, workload.DefaultInventoryConfig())
		if err != nil {
			log.Fatal(err)
		}
		req := model.Request{1 + rng.Intn(6), rng.Intn(4)}
		exact, err := sdexact.SolveSDLP(small, caps, req)
		if err != nil {
			continue // infeasible draw
		}
		alloc, err := (&placement.OnlineHeuristic{}).Place(small, caps, req)
		if err != nil {
			log.Fatalf("Algorithm 1 failed where the SD optimum is %v: %v", exact.Distance, err)
		}
		if d, _ := alloc.Distance(small); d > exact.Distance+1e-9 {
			log.Fatalf("Algorithm 1 %v above the SD optimum %v on request %v over %v", d, exact.Distance, req, caps)
		}
		n++
	}
	fmt.Print("[Algorithm 1 vs exact SD] optimal on 200 of 200 instances\n\n")

	// Part 2: Algorithm 1 against the simplex on a small instance. At
	// most two VMs of each type per node force the request to spread, so
	// the optimum is positive rather than one node's trivial 0.
	topo, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		log.Fatal(err)
	}
	caps, err := workload.RandomCapacities(3, topo.Nodes(), 2, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		log.Fatal(err)
	}
	req := model.Request{4, 2}
	alloc, err := (&placement.OnlineHeuristic{}).Place(topo, caps, req)
	if err != nil {
		log.Fatal(err)
	}
	fast, _ := alloc.Distance(topo)
	slow, err := sdexact.SolveSDLP(topo, caps, req)
	if err != nil {
		log.Fatal(err)
	}
	if fast <= 0 || fast != slow.Distance {
		log.Fatalf("Algorithm 1 %v, transportation simplex %v; want one positive optimum", fast, slow.Distance)
	}
	fmt.Printf("[Algorithm 1 vs simplex] Algorithm 1: %.1f, transportation simplex: %.1f\n\n", fast, slow.Distance)

	// Part 3: Algorithm 2 vs the exact GSD optimum on small batches. At
	// most one VM per node, as in TestGlobalSubOptAgainstGSDOptimum,
	// makes every request of two or more VMs spread, so the optimum is
	// positive.
	rng = rand.New(rand.NewSource(5))
	var heurTotal, optTotal float64
	batches, missed := 0, 0
	for batches < 25 {
		caps, err := workload.RandomCapacities(rng.Int63(), topo.Nodes(), 1, workload.InventoryConfig{MaxPerType: 1})
		if err != nil {
			log.Fatal(err)
		}
		reqs := []model.Request{
			{1 + rng.Intn(3)},
			{1 + rng.Intn(3)},
			{1 + rng.Intn(2)},
		}
		exact, err := sdexact.SolveGSD(topo, caps, reqs)
		if err != nil {
			if errors.Is(err, sdexact.ErrInfeasible) {
				continue
			}
			log.Fatal(err)
		}
		g := &placement.GlobalSubOpt{}
		res, err := g.PlaceBatch(topo, caps, reqs)
		if err != nil {
			log.Fatal(err)
		}
		if res.Failed > 0 {
			continue
		}
		if res.Total < exact.Total-1e-9 {
			log.Fatalf("Algorithm 2 total %v below the exact GSD optimum %v on batch %v over %v", res.Total, exact.Total, reqs, caps)
		}
		heurTotal += res.Total
		optTotal += exact.Total
		if res.Total > exact.Total {
			missed++
		}
		batches++
	}
	if optTotal == 0 {
		log.Fatalf("the exact GSD optimum is 0 on all %d batches: they no longer force a spread", batches)
	}
	fmt.Printf("[Algorithm 2 vs exact GSD] %d batches: heuristic total %.1f vs optimal %.1f, gap %.1f (%.1f%%); heuristic above optimal on %d of %d batches\n",
		batches, heurTotal, optTotal, heurTotal-optTotal, (heurTotal-optTotal)/optTotal*100, missed, batches)
}
