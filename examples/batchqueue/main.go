// Batchqueue: simulate a cloud serving a random stream of virtual-cluster
// requests over several hours, comparing per-request online placement
// against batch service with the global sub-optimization algorithm. The
// plant has the ops figure's capacities, tight enough that requests wait
// in the queue; the example exits non-zero if either arm never queues.
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
	reqs, err := workload.RandomRequests(7, 60, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		log.Fatal(err)
	}
	arrivals := workload.DefaultArrivalConfig()
	arrivals.MeanInterarrival = 20
	timed, err := workload.TimedRequests(8, reqs, arrivals)
	if err != nil {
		log.Fatal(err)
	}

	arms := []struct {
		name string
		cfg  cloudsim.Config
	}{
		{"online (per request)", cloudsim.Config{}},
		{"global (batched)", cloudsim.Config{Batch: true}},
	}

	fmt.Printf("%-22s %7s %9s %9s %9s %7s\n", "strategy", "served", "meanDist", "meanWait", "util", "queue")
	for _, a := range arms {
		caps, err := workload.RandomCapacities(9, topo.Nodes(), 3, workload.InventoryConfig{MaxPerType: 2})
		if err != nil {
			log.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := cloudsim.New(topo, inv, &placement.OnlineHeuristic{}, a.cfg)
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(timed))
		if err != nil {
			log.Fatal(err)
		}
		wait := m.WaitSketch.Mean()
		fmt.Printf("%-22s %7d %9.2f %9.1f %8.1f%% %7d\n",
			a.name, m.Served, m.DistanceSketch.Mean(), wait,
			m.UtilizationAvg*100, m.Unplaced)
		if !(wait > 0) {
			log.Fatalf("%s: mean wait %.1f s, want requests that queue", a.name, wait)
		}
	}
}
