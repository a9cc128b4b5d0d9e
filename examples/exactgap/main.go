// Exactgap: measure the paper's algorithms against the exact solvers —
// Algorithm 1 vs the SD optimum (the paper's program solved by the
// simplex, one center at a time), which it must match on every instance,
// and Algorithm 2 vs the exact GSD optimum on small batches. It exits
// non-zero when Algorithm 1 misses the optimum.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"affinitycluster/internal/experiments"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

func main() {
	// Part 1: Algorithm 1 vs the exact SD optimum over random instances.
	// Algorithm 1 is exact (DESIGN.md §9), so a miss is a bug.
	gap, err := experiments.ExactGap(1, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("[Algorithm 1 vs exact SD]\n" + gap.Render() + "\n")
	if gap.OptimalHit != gap.Instances {
		log.Fatalf("Algorithm 1 missed the SD optimum on %d of %d instances", gap.Instances-gap.OptimalHit, gap.Instances)
	}

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

	// Part 3: Algorithm 2 vs the exact GSD optimum on small batches.
	rng := rand.New(rand.NewSource(5))
	var heurTotal, optTotal float64
	batches, missed := 0, 0
	for batches < 25 {
		caps, err := workload.RandomCapacities(rng.Int63(), topo.Nodes(), 1, workload.DefaultInventoryConfig())
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
		heurTotal += res.Total
		optTotal += exact.Total
		if res.Total > exact.Total {
			missed++
		}
		batches++
	}
	// A relative gap is undefined against a zero optimum, so the absolute
	// gap and the missed-batch count carry the comparison.
	fmt.Printf("[Algorithm 2 vs exact GSD] %d batches: heuristic total %.1f vs optimal %.1f, gap %.1f",
		batches, heurTotal, optTotal, heurTotal-optTotal)
	if optTotal > 0 {
		fmt.Printf(" (%.1f%%)", (heurTotal-optTotal)/optTotal*100)
	}
	fmt.Printf("; heuristic above optimal on %d of %d batches\n", missed, batches)
}
