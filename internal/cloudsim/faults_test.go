package cloudsim

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// conserve asserts the request-conservation invariant: every input
// request is served, rejected, or still queued — never silently lost.
func conserve(t *testing.T, m *Metrics, n int) {
	t.Helper()
	if got := m.Served + m.Rejected + m.Unplaced; got != n {
		t.Errorf("conservation broken: served %d + rejected %d + unplaced %d = %d, want %d",
			m.Served, m.Rejected, m.Unplaced, got, n)
	}
}

// crash injects crafted fault events into a simulator; tests use it to
// pin exact failure scenarios instead of searching seeds.
func inject(sim *Simulator, evs ...faults.Event) { sim.faultPlan = evs }

func pair(at, repairAt float64, id int, nodes ...topology.NodeID) []faults.Event {
	return []faults.Event{
		{Time: at, Kind: faults.NodeCrash, FailureID: id, Nodes: nodes, Rack: -1},
		{Time: repairAt, Kind: faults.Repair, FailureID: id, Nodes: nodes, Rack: -1},
	}
}

// A crash that kills part of a cluster while spare capacity exists must
// recover it in place: replacement VMs allocated, the cluster keeps its
// departure, and the repair restores the plant to full capacity.
func TestCrashEvacuatesDegradedCluster(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(5, 8, 0, 1)...)
	// {4,0} spreads over two nodes (per-node cap 2); node 1 dies at t=5.
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{4, 0}, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 1)
	if m.Failures != 1 || m.LostVMs != 2 {
		t.Errorf("failures=%d lost=%d, want 1/2", m.Failures, m.LostVMs)
	}
	if m.Evacuations != 1 || m.Requeued != 0 || m.Replacements != 0 {
		t.Errorf("evac=%d requeued=%d repl=%d, want evacuation only", m.Evacuations, m.Requeued, m.Replacements)
	}
	if m.Served != 1 {
		t.Errorf("served = %d", m.Served)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	alloc := inv.AllocatedMatrix()
	for i := range alloc {
		for j, k := range alloc[i] {
			if k != 0 {
				t.Fatalf("leaked %d VMs of type %d on node %d", k, j, i)
			}
		}
	}
	kinds := map[string]bool{}
	for _, e := range reg.Events() {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"fault", "degraded", "recover", "repair", "depart"} {
		if !kinds[k] {
			t.Errorf("trace missing %q events; have %v", k, kinds)
		}
	}
}

// A crash that leaves no residual capacity tears the cluster down; the
// victim retries, exhausts its budget, parks at the queue head, and is
// served by the drain the repair fires — with its original arrival
// time, so the recorded wait spans the whole outage.
func TestCrashTeardownRequeueServedAfterRepair(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
		Obs:           reg,
		Recovery:      RecoveryConfig{MaxAttempts: 2, Backoff: 1, Factor: 2},
		RetainSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(5, 30, 0, 0)...)
	// The request needs the whole plant, so losing any node forces a
	// teardown, and no retry can succeed until the repair.
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{12, 12}, 1, 20)})
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 1)
	if m.Requeued != 1 || m.Replacements != 1 || m.RetriesExhausted != 1 {
		t.Errorf("requeued=%d repl=%d exhausted=%d, want 1/1/1", m.Requeued, m.Replacements, m.RetriesExhausted)
	}
	if m.Evacuations != 0 {
		t.Errorf("evacuations = %d, want 0", m.Evacuations)
	}
	if m.Served != 1 || m.Unplaced != 0 {
		t.Errorf("served=%d unplaced=%d", m.Served, m.Unplaced)
	}
	if len(m.Waits) != 1 || m.Waits[0] != 29 { // re-served at the t=30 repair, arrived at 1
		t.Errorf("waits = %v, want [29]", m.Waits)
	}
	if m.MakeSpan != 50 {
		t.Errorf("makespan = %v, want 50", m.MakeSpan)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// When the queue is full, a victim whose retries are exhausted is
// rejected as requeue_full instead of vanishing.
func TestTeardownVictimRejectedWhenQueueFull(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
		QueueCap: 1,
		Obs:      reg,
		Recovery: RecoveryConfig{MaxAttempts: 1, Backoff: 1, Factor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(5, 10, 0, 0)...)
	m, err := sim.Run([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 100), // whole plant, torn down at t=5
		timed(1, model.Request{12, 12}, 2, 5),   // fills the 1-slot queue
	})
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 2)
	if m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1 (requeue_full)", m.Rejected)
	}
	found := false
	for _, e := range reg.Events() {
		if e.Kind == "queue_reject" {
			for _, f := range e.Fields {
				if f.Key == "reason" && f.Val() == "requeue_full" {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no requeue_full rejection in trace")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Malformed requests are rejected up front and still counted.
func TestInvalidRequestsRejectedUpFront(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run([]model.TimedRequest{
		timed(0, model.Request{1, 0}, 1, 10),
		timed(1, model.Request{1, 0}, math.NaN(), 10),
		timed(2, model.Request{1, 0}, 2, -5),
		timed(3, model.Request{-1, 0}, 3, 10),
		timed(0, model.Request{1, 0}, 4, 10), // duplicate ID
		timed(4, model.Request{1, 0}, math.Inf(1), 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 6)
	if m.Served != 1 || m.Rejected != 5 {
		t.Errorf("served=%d rejected=%d, want 1/5", m.Served, m.Rejected)
	}
}

// A placer returning a non-sentinel error must abort the run instead of
// being misread as "does not fit".
type brokenPlacer struct{}

func (brokenPlacer) Name() string { return "broken" }
func (brokenPlacer) Place(*topology.Topology, [][]int, model.Request) (affinity.Allocation, error) {
	return nil, errTestBroken
}

var errTestBroken = errors.New("placer exploded")

func TestHardPlacerErrorAbortsRun(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, brokenPlacer{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run([]model.TimedRequest{timed(0, model.Request{1, 0}, 1, 10)})
	if !errors.Is(err, errTestBroken) {
		t.Fatalf("err = %v, want wrapped placer error", err)
	}
}

// Full seeded fault pipeline: same seed and config twice must produce
// byte-identical metric snapshots and traces.
func TestSeededFaultRunDeterministic(t *testing.T) {
	run := func() (*Metrics, *obs.Registry) {
		tp := topology.PaperSimPlant()
		caps, err := workload.RandomCapacities(11, tp.Nodes(), 3, workload.InventoryConfig{MaxPerType: 2})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.RandomRequests(12, 30, 3, workload.Normal, workload.DefaultRequestConfig())
		if err != nil {
			t.Fatal(err)
		}
		arr := workload.DefaultArrivalConfig()
		arr.MeanInterarrival = 5
		timedReqs, err := workload.TimedRequests(13, reqs, arr)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sim, err := New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, Config{
			Policy:    queue.FIFO,
			Batch:     true,
			Migrate:   true,
			Faults:    faults.Config{MTBF: 40, MTTR: 60, Horizon: 250, RackEvery: 2},
			FaultSeed: 14,
			Obs:       reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run(timedReqs)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, m, 30)
		if err := inv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m, reg
	}
	m1, reg1 := run()
	m2, reg2 := run()
	if m1.Failures == 0 {
		t.Fatal("seeded scenario injected no failures")
	}
	if m1.Failures != m2.Failures || m1.Served != m2.Served || m1.Requeued != m2.Requeued {
		t.Errorf("metrics differ: %+v vs %+v", m1, m2)
	}
	var a, b, ta, tb bytes.Buffer
	if err := reg1.WriteMetricsJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("metric snapshots differ between identical seeded fault runs")
	}
	if err := reg1.WriteTraceJSONL(&ta); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteTraceJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("traces differ between identical seeded fault runs")
	}
}

// Property: replaying a fault plan against an idle inventory conserves
// capacity exactly — every VM slot a crash frees comes back with its
// repair, and the plant ends at its original capacity.
func TestQuickCrashRepairCapacityConservation(t *testing.T) {
	tp := topology.PaperSimPlant()
	f := func(seed int64) bool {
		caps := make([][]int, tp.Nodes())
		for i := range caps {
			caps[i] = []int{2, 2}
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			return false
		}
		total := func() int {
			s := 0
			for _, a := range inv.Available() {
				s += a
			}
			return s
		}
		full := total()
		plan, err := faults.Plan(seed, tp, faults.Config{MTBF: 30, MTTR: 40, Horizon: 400, RackEvery: 3})
		if err != nil {
			return false
		}
		freed := map[int]int{}
		for _, ev := range plan {
			before := total()
			if ev.Kind == faults.Repair {
				for _, n := range ev.Nodes {
					if err := inv.RestoreNode(n); err != nil {
						return false
					}
				}
				if total()-before != freed[ev.FailureID] {
					return false
				}
			} else {
				for _, n := range ev.Nodes {
					if _, err := inv.FailNode(n); err != nil {
						return false
					}
				}
				freed[ev.FailureID] = before - total()
			}
			if inv.CheckInvariants() != nil {
				return false
			}
		}
		return total() == full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
