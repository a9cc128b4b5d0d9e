package cloudsim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{4, 0}, 1, 10)}))
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
		Obs:      reg,
		Recovery: RecoveryConfig{MaxAttempts: 2, Backoff: 1, Factor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(5, 30, 0, 0)...)
	// The request needs the whole plant, so losing any node forces a
	// teardown, and no retry can succeed until the repair.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{12, 12}, 1, 20)}))
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
	// Placed on arrival, then re-served at the t=30 repair, arrived at 1;
	// the teardown rolled the first sample back out of the sketch.
	if _, waits := placeSamples(reg); !slices.Equal(waits, []float64{0, 29}) {
		t.Errorf("place waits = %v, want [0 29]", waits)
	}
	if m.WaitSketch.Count() != 1 || m.WaitSketch.Sum() != 29 {
		t.Errorf("wait sketch holds %d samples summing to %v, want the one 29", m.WaitSketch.Count(), m.WaitSketch.Sum())
	}
	if m.MakeSpan != 50 {
		t.Errorf("makespan = %v, want 50", m.MakeSpan)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A victim whose retries are exhausted is parked at the head of the
// queue. A refusal there (a one-slot queue already holding request 1)
// aborts the run instead of dropping or rejecting the victim.
func TestTeardownVictimQueueRefusalAbortsRun(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
		Recovery: RecoveryConfig{MaxAttempts: 1, Backoff: 1, Factor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	boundedQueue(sim)
	inject(sim, pair(5, 10, 0, 0)...)
	_, err = sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 100), // whole plant, torn down at t=5
		timed(1, model.Request{12, 12}, 2, 5),   // fills the one slot
	}))
	if !errors.Is(err, queue.ErrFull) || !strings.Contains(err.Error(), "requeueing recovered request 0") {
		t.Fatalf("Run error = %v, want request 0's queue.ErrFull", err)
	}
}

// Malformed requests are rejected and still counted.
func TestInvalidRequestsRejectedAndCounted(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{1, 0}, 1, 10),
		timed(1, model.Request{1, 0}, math.NaN(), 10),
		timed(2, model.Request{1, 0}, 2, -5),
		timed(3, model.Request{-1, 0}, 3, 10),
		timed(0, model.Request{1, 0}, 4, 10), // duplicate ID
		timed(4, model.Request{1, 0}, math.Inf(1), 10),
		timed(5, model.Request{1}, 5, 10),       // too few types
		timed(6, model.Request{1, 0, 0}, 6, 10), // too many types
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 8)
	if m.Served != 1 || m.Rejected != 7 {
		t.Errorf("served=%d rejected=%d, want 1/7", m.Served, m.Rejected)
	}
	// Malformed input is refused when it is pulled, right after request
	// 0 arrives at t=1: a request of the wrong width is invalid, not
	// larger than the plant.
	want := []string{"1 invalid @1", "2 invalid @1", "3 invalid @1", "0 invalid @1",
		"4 invalid @1", "5 invalid @1", "6 invalid @1"}
	if got := rejectLog(reg); !slices.Equal(got, want) {
		t.Errorf("rejects = %q, want %q", got, want)
	}
}

// rejectLog lists the registry's queue_reject events as "req reason @t".
func rejectLog(reg *obs.Registry) []string {
	var out []string
	for _, e := range reg.Events() {
		if e.Kind != "queue_reject" {
			continue
		}
		var req, reason any
		for _, f := range e.Fields {
			switch f.Key {
			case "req":
				req = f.Val()
			case "reason":
				reason = f.Val()
			}
		}
		out = append(out, fmt.Sprintf("%v %v @%v", req, reason, e.Time))
	}
	return out
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
		m, err := sim.RunStream(model.NewSliceSource(timedReqs))
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
