// Migration: run a busy cloud twice — with and without affinity-aware
// live migration — and compare how tight the running clusters stay as
// earlier tenants depart and free up attractive capacity. It exits
// non-zero unless the migrating run applies at least one move and ends
// below its distance at placement.
package main

import (
	"fmt"
	"log"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

func main() {
	topo := topology.PaperSimPlant()
	reqs, err := workload.RandomRequests(21, 40, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		log.Fatal(err)
	}
	arrivals := workload.DefaultArrivalConfig()
	arrivals.MeanInterarrival = 5 // heavy load: clusters overlap and fragment
	arrivals.MeanHold = 300
	timed, err := workload.TimedRequests(22, reqs, arrivals)
	if err != nil {
		log.Fatal(err)
	}

	// Fine-grained capacity (≤1 instance of each type per node) forces
	// clusters to span nodes, leaving room for migration to tighten them.
	invCfg := workload.InventoryConfig{MaxPerType: 1}
	for _, migrate := range []bool{false, true} {
		caps, err := workload.RandomCapacities(23, topo.Nodes(), 3, invCfg)
		if err != nil {
			log.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := cloudsim.New(topo, inv, &placement.OnlineHeuristic{}, cloudsim.Config{Migrate: migrate})
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(timed))
		if err != nil {
			log.Fatal(err)
		}
		mode := "placement only "
		if migrate {
			mode = "with migration"
		}
		fmt.Printf("%s  served %d  distance at placement %6.1f  at departure %6.1f  (%d moves, %.1f GB traffic, gain %.1f)\n",
			mode, m.Served, m.TotalDistance, m.FinalDistanceSum,
			m.Migrations, m.MigrationMB/1024, m.MigrationGain)
		if migrate && (m.Migrations == 0 || m.FinalDistanceSum >= m.TotalDistance) {
			log.Fatalf("migration applied %d moves and ended at %.1f from %.1f at placement; want a move and a lower distance",
				m.Migrations, m.FinalDistanceSum, m.TotalDistance)
		}
	}
}
