package cloudsim

import (
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// checkLedger asserts the sparse cluster records against the inventory
// and the dense reference: the live clusters' cells sum to the allocated
// matrix C, every record is canonical (strictly ascending by node then
// type, positive counts, VM count equal to the cell sum), and the sparse
// DC is bit-equal to Allocation.Distance of the dense form.
func checkLedger(t *testing.T, s *Simulator, step int) {
	t.Helper()
	n, m := s.topo.Nodes(), s.inv.Types()
	sum := affinity.NewAllocation(n, m)
	for id, c := range s.running {
		vms := 0
		for k, e := range c.cells {
			if e.Count <= 0 {
				t.Fatalf("step %d cluster %d: cell %+v has non-positive count", step, id, e)
			}
			if k > 0 {
				p := c.cells[k-1]
				if p.Node > e.Node || (p.Node == e.Node && p.Type >= e.Type) {
					t.Fatalf("step %d cluster %d: cells out of order at %d: %+v then %+v", step, id, k, p, e)
				}
			}
			vms += e.Count
			sum[e.Node][e.Type] += e.Count
		}
		if vms != c.vms {
			t.Fatalf("step %d cluster %d: VM count %d, cells sum to %d", step, id, c.vms, vms)
		}
		gotD, gotK := s.distance(c)
		wantD, wantK := c.dense(n, m).Distance(s.topo)
		if gotD != wantD || gotK != wantK {
			t.Fatalf("step %d cluster %d: sparse DC (%v, %d), dense (%v, %d)", step, id, gotD, gotK, wantD, wantK)
		}
	}
	alloc := s.inv.AllocatedMatrix()
	for i := range alloc {
		for j, k := range alloc[i] {
			if sum[i][j] != k {
				t.Fatalf("step %d: live clusters hold %d VMs of type %d on node %d, inventory C says %d",
					step, sum[i][j], j, i, k)
			}
		}
	}
}

// TestClusterLedgerDifferential steps a faults + elastic streaming
// replay one event at a time and checks the sparse ledger after every
// event, so each path that edits a cluster record — commission, grow,
// shrink, degrade, evacuation, teardown, departure — is pinned against
// the inventory and the dense reference.
func TestClusterLedgerDifferential(t *testing.T) {
	tp, err := topology.Uniform(2, 3, 5, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	var total Metrics
	for seed := int64(1); seed <= 3; seed++ {
		caps, err := workload.RandomCapacities(seed, tp.Nodes(), 2, workload.InventoryConfig{MaxPerType: 3})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
			Elastic:   elasticCfg(),
			Faults:    faults.Config{MTBF: 150, MTTR: 60, Horizon: 4000, RackEvery: 3},
			FaultSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs := elasticWorkload(t, seed*7, 200)
		// RunStream's preamble, then its event loop one step at a time.
		if err := sim.scheduleFaults(); err != nil {
			t.Fatal(err)
		}
		src := &contractSource{src: model.NewSliceSource(reqs), sim: sim, lastID: -1}
		if err := sim.scheduleNextArrival(src); err != nil {
			t.Fatal(err)
		}
		for step := 0; sim.failed == nil && sim.engine.Step(); step++ {
			checkLedger(t, sim, step)
		}
		got, err := sim.finish()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		elasticConserve(t, got, len(reqs))
		if len(sim.running) != 0 {
			t.Fatalf("seed %d: %d clusters still live after the run", seed, len(sim.running))
		}
		total.Grows += got.Grows
		total.Shrinks += got.Shrinks
		total.Evacuations += got.Evacuations
		total.Requeued += got.Requeued
	}
	if total.Grows == 0 || total.Shrinks == 0 || total.Evacuations == 0 || total.Requeued == 0 {
		t.Fatalf("scenario misses a path: %d grows, %d shrinks, %d evacuations, %d teardowns",
			total.Grows, total.Shrinks, total.Evacuations, total.Requeued)
	}
}

// TestClusterDistanceZeroAllocs pins the departure DC at zero
// allocations once the simulator's scratch has grown.
func TestClusterDistanceZeroAllocs(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster([]affinity.VMEntry{{Node: 0, Type: 0, Count: 2}, {Node: 1, Type: 1, Count: 1}, {Node: 4, Type: 0, Count: 2}})
	sim.distance(c)
	if avg := testing.AllocsPerRun(100, func() { sim.distance(c) }); avg != 0 {
		t.Fatalf("sparse DC allocates %v per call, want 0", avg)
	}
}
