// Quickstart: build a cloud, provision an affinity-aware virtual cluster
// for a MapReduce-style request through the placement service, inspect
// its distance — the shortest-distance optimum under the current load —
// and central node, and release it.
package main

import (
	"fmt"
	"log"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/service"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

func main() {
	// A cloud shaped like the paper's simulation: 3 racks × 10 nodes,
	// offering the Table-I instance types (small, medium, large).
	topo := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(42, topo.Nodes(), 3, workload.DefaultInventoryConfig())
	if err != nil {
		log.Fatal(err)
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		log.Fatal(err)
	}

	// The service owns the inventory until Close: placements and
	// releases go through it, and it places with Algorithm 1, which
	// returns the shortest-distance optimum (DESIGN.md §9).
	svc, err := service.New(service.Config{Topology: topo, Inventory: inv})
	if err != nil {
		log.Fatal(err)
	}

	// Request the paper's running example: two small, four medium, one
	// large instance.
	req := model.Request{2, 4, 1}
	fmt.Printf("requesting %d VMs: %v (availability %v)\n", req.TotalVMs(), req, inv.Available())

	pl, err := svc.Place(req)
	if err != nil {
		log.Fatal(err)
	}
	alloc := (&affinity.SparseAlloc{NumNodes: topo.Nodes(), NumTypes: len(req), Entries: pl.Entries}).ToDense()
	fmt.Printf("provisioned cluster: distance %.1f, central node %d, pairwise affinity %.1f\n",
		pl.DC, pl.Center, alloc.PairwiseAffinity(topo))
	for _, node := range alloc.HostingNodes() {
		fmt.Printf("  node %2d (rack %d): %v\n", node, topo.RackOf(node), alloc[node])
	}

	if err := svc.Release(pl.Entries); err != nil {
		log.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released; availability restored to %v\n", inv.Available())
}
