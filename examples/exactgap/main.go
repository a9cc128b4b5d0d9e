// Exactgap: quantify the optimality gap of the paper's heuristics against
// the exact solvers — Algorithm 1 vs the SD optimum (solved both by the
// specialized transportation argument and by the general branch-and-bound
// ILP), and Algorithm 2 vs the exact GSD optimum on small batches.
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
	gap, err := experiments.ExactGap(1, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("[Algorithm 1 vs exact SD]\n" + gap.Render() + "\n")

	// Part 2: cross-check the two exact solvers on a small instance.
	topo, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		log.Fatal(err)
	}
	caps, err := workload.RandomCapacities(3, topo.Nodes(), 2, workload.DefaultInventoryConfig())
	if err != nil {
		log.Fatal(err)
	}
	req := model.Request{4, 2}
	fast, err := sdexact.SolveSD(topo, caps, req)
	if err != nil {
		log.Fatal(err)
	}
	slow, err := sdexact.SolveSDMIP(topo, caps, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[exact solver cross-check] greedy-transportation: %.1f, branch-and-bound ILP: %.1f\n\n",
		fast.Distance, slow.Distance)

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
		exact, err := sdexact.SolveGSD(topo, caps, reqs, sdexact.GSDOptions{})
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
