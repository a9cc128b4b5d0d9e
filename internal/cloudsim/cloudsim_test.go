package cloudsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

func plant(t *testing.T) (*topology.Topology, *inventory.Inventory) {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	caps := make([][]int, tp.Nodes())
	for i := range caps {
		caps[i] = []int{2, 2}
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	return tp, inv
}

func timed(id int, vec model.Request, at, hold float64) model.TimedRequest {
	return model.TimedRequest{ID: model.RequestID(id), Vector: vec, Arrival: at, Hold: hold}
}

// event is one decoded line of a streamed JSONL trace: its "t", its
// "kind" and the emitter's fields. Numbers decode as float64, exactly:
// the encoder writes shortest round-trip digits.
type event map[string]any

// events decodes the JSONL trace a streaming registry wrote to trace.
// A key keeps its first value: the fault event's own "kind" field
// repeats the key the event's kind was written under.
func events(t *testing.T, trace *bytes.Buffer) []event {
	t.Helper()
	var out []event
	dec := json.NewDecoder(bytes.NewReader(trace.Bytes()))
	for dec.More() {
		e := event{}
		_, err := dec.Token() // the opening brace
		for err == nil && dec.More() {
			var key json.Token
			if key, err = dec.Token(); err != nil {
				break
			}
			var v any
			err = dec.Decode(&v)
			if _, seen := e[key.(string)]; !seen {
				e[key.(string)] = v
			}
		}
		if err == nil {
			_, err = dec.Token() // the closing brace
		}
		if err != nil {
			t.Fatalf("trace event %d: %v", len(out), err)
		}
		out = append(out, e)
	}
	return out
}

// placeSamples reads the exact per-request samples behind Metrics'
// sketches off a streamed trace: the dc and wait fields of each place
// event, in service order. A cluster a fault tears down keeps its place
// event, though its sample leaves the sketches.
func placeSamples(t *testing.T, trace *bytes.Buffer) (dcs, waits []float64) {
	t.Helper()
	for _, e := range events(t, trace) {
		if e["kind"] == "place" {
			dcs = append(dcs, e["dc"].(float64))
			waits = append(waits, e["wait"].(float64))
		}
	}
	return dcs, waits
}

func TestNewValidation(t *testing.T) {
	tp, inv := plant(t)
	if _, err := New(tp, inv, nil, Config{}); err == nil {
		t.Error("nil online heuristic accepted")
	}
	smallInv, _ := inventory.NewFromMatrix([][]int{{1, 1}})
	if _, err := New(tp, smallInv, &placement.OnlineHeuristic{}, Config{}); err == nil {
		t.Error("mismatched inventory accepted")
	}
	zero := make([][]int, tp.Nodes())
	for i := range zero {
		zero[i] = make([]int, 2)
	}
	zeroInv, err := inventory.NewFromMatrix(zero)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tp, zeroInv, &placement.OnlineHeuristic{}, Config{}); err == nil {
		t.Error("zero-capacity inventory accepted")
	}
}

func TestImmediateServiceAndRelease(t *testing.T) {
	tp, inv := plant(t)
	var trace bytes.Buffer
	reg := obs.NewStreamingRegistry(&trace)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{2, 1}, 1, 10),
		timed(1, model.Request{1, 0}, 2, 5),
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 2)
	if m.Served != 2 || m.Rejected != 0 || m.Unplaced != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, waits := placeSamples(t, &trace); len(waits) != 2 || waits[0] != 0 || waits[1] != 0 {
		t.Errorf("waits = %v, want zeros", waits)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if inv.AllocatedMatrix()[0][0] != 0 {
		t.Error("resources not fully released")
	}
	if m.MakeSpan != 11 {
		t.Errorf("makespan = %v, want 11", m.MakeSpan)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	tp, inv := plant(t)
	sim, _ := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{100, 0}, 1, 10),
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 1)
	if m.Rejected != 1 || m.Served != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestQueueingAndDrain(t *testing.T) {
	tp, inv := plant(t)
	var trace bytes.Buffer
	reg := obs.NewStreamingRegistry(&trace)
	sim, _ := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	// Request 0 takes the whole plant for 10s; request 1 arrives at t=2
	// and must wait until t=11.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 10),
		timed(1, model.Request{6, 0}, 2, 5),
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 2)
	if m.Served != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, waits := placeSamples(t, &trace); len(waits) != 2 || waits[1] != 9 { // 11 − 2
		t.Errorf("waits = %v, want the second 9", waits)
	}
	if m.MakeSpan != 16 {
		t.Errorf("makespan = %v, want 16", m.MakeSpan)
	}
}

// The wait queue is unbounded and Run deduplicates IDs at intake, so a
// refused Enqueue can only be a bookkeeping bug. Tests stand that bug in
// with a one-slot queue; the refusal must abort the run with the queue's
// error instead of being counted as a rejection.
func boundedQueue(sim *Simulator) { sim.queue = queue.New(queue.FIFO, 1) }

func TestQueueRefusalAbortsArrival(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	boundedQueue(sim)
	_, err = sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 100),
		timed(1, model.Request{6, 0}, 2, 5), // queues
		timed(2, model.Request{6, 0}, 3, 5), // refused
	}))
	if !errors.Is(err, queue.ErrFull) || !strings.Contains(err.Error(), "queueing request 2") {
		t.Fatalf("Run error = %v, want request 2's queue.ErrFull", err)
	}
}

func TestQueueRefusalAbortsRequeue(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	boundedQueue(sim)
	if err := sim.queue.Enqueue(timed(0, model.Request{1, 0}, 1, 5)); err != nil {
		t.Fatal(err)
	}
	sim.requeue(timed(1, model.Request{1, 0}, 2, 5))
	if !errors.Is(sim.failed, queue.ErrFull) || !strings.Contains(sim.failed.Error(), "requeueing request 1") {
		t.Fatalf("failure = %v, want request 1's queue.ErrFull", sim.failed)
	}
	if sim.metrics.Rejected != 0 {
		t.Errorf("rejected = %d, want the refusal left out of the rejections", sim.metrics.Rejected)
	}
}

func TestUtilizationBounds(t *testing.T) {
	tp, inv := plant(t)
	sim, _ := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 0.0001, 10), // whole plant
	}))
	if err != nil {
		t.Fatal(err)
	}
	if m.UtilizationAvg <= 0.9 || m.UtilizationAvg > 1.0 {
		t.Errorf("utilization = %v, want ≈1", m.UtilizationAvg)
	}
}

func TestBatchModeServesBacklog(t *testing.T) {
	tp, inv := plant(t)
	sim, _ := New(tp, inv, &placement.OnlineHeuristic{}, Config{Batch: true})
	// Whole-plant request followed by three small ones that drain as one
	// batch when it departs.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 10),
		timed(1, model.Request{2, 0}, 2, 5),
		timed(2, model.Request{2, 0}, 3, 5),
		timed(3, model.Request{0, 2}, 4, 5),
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 4)
	if m.Served != 4 || m.Unplaced != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndRandomWorkload(t *testing.T) {
	tp := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(3, tp.Nodes(), 3, workload.DefaultInventoryConfig())
	if err != nil {
		t.Fatal(err)
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.RandomRequests(4, 20, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	timedReqs, err := workload.TimedRequests(5, reqs, workload.DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	reg := obs.NewStreamingRegistry(&trace)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Policy: queue.FIFO, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource(timedReqs))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Rejected+m.Unplaced != 20 {
		t.Fatalf("request accounting wrong: %+v", m)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if dcs, _ := placeSamples(t, &trace); len(dcs) != m.Served {
		t.Errorf("%d place events, want one per served request (%d)", len(dcs), m.Served)
	}
	if m.UtilizationAvg < 0 || m.UtilizationAvg > 1 {
		t.Errorf("utilization = %v", m.UtilizationAvg)
	}
}

func TestMigrationTightensRunningClusters(t *testing.T) {
	tp, _ := plant(t)
	run := func(migrate bool) *Metrics {
		// Capacity (single VM type that matters): node 0 holds 4, node 1
		// holds 1 (rack 0); node 4 holds 1 (rack 1). Request 0 takes one
		// slot of node 0; request 1 (5 VMs) is then forced to straddle
		// racks with a stray VM on node 3. When request 0 departs, its
		// freed node-0 slot lets migration pull the stray home.
		caps := [][]int{
			{4, 0}, {1, 0}, {0, 0},
			{0, 0}, {1, 0}, {0, 0},
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Migrate: migrate})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
			timed(0, model.Request{1, 0}, 1, 10),
			timed(1, model.Request{5, 0}, 2, 100),
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	with := run(true)
	without := run(false)
	if with.Served != without.Served {
		t.Fatalf("served differ: %d vs %d", with.Served, without.Served)
	}
	if with.Migrations == 0 {
		t.Error("no migrations happened in the crafted scenario")
	}
	if with.MigrationGain <= 0 {
		t.Error("migrations reported no gain")
	}
	if with.FinalDistanceSum >= without.FinalDistanceSum {
		t.Errorf("migration did not reduce final distances: %v vs %v",
			with.FinalDistanceSum, without.FinalDistanceSum)
	}
	if without.Migrations != 0 {
		t.Error("migrations counted while disabled")
	}
}

// TestSoakLongHorizon runs a long, heavily loaded scenario through every
// feature at once — batching and migration — and checks global
// accounting invariants at the end.
func TestSoakLongHorizon(t *testing.T) {
	topo := topology.PaperSimPlant()
	const n = 300
	reqs, err := workload.RandomRequests(71, n, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	arrivals := workload.DefaultArrivalConfig()
	arrivals.MeanInterarrival = 4
	arrivals.MeanHold = 250
	timed, err := workload.TimedRequests(72, reqs, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := workload.RandomCapacities(73, topo.Nodes(), 3, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	reg := obs.NewStreamingRegistry(&trace)
	sim, err := New(topo, inv, &placement.OnlineHeuristic{}, Config{
		Policy:  queue.FIFO,
		Batch:   true,
		Migrate: true,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource(timed))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Rejected+m.Unplaced != n {
		t.Fatalf("request accounting broken: served %d + rejected %d + unplaced %d != %d",
			m.Served, m.Rejected, m.Unplaced, n)
	}
	if m.Served < n/2 {
		t.Errorf("suspiciously few served: %d", m.Served)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All served clusters departed: everything must be released.
	allocated := inv.AllocatedMatrix()
	for i := range allocated {
		for j, k := range allocated[i] {
			if k != 0 {
				t.Fatalf("leaked %d VMs of type %d on node %d", k, j, i)
			}
		}
	}
	dcs, waits := placeSamples(t, &trace)
	if len(dcs) != m.Served || len(waits) != m.Served {
		t.Error("metric sample counts inconsistent")
	}
	for _, w := range waits {
		if w < 0 {
			t.Fatal("negative wait")
		}
	}
	if m.UtilizationAvg <= 0 || m.UtilizationAvg > 1 {
		t.Errorf("utilization %v out of range", m.UtilizationAvg)
	}
}

// TestCorruptedReleaseReturnsError is the regression test for the old
// panic in depart(): when a departure's release no longer matches the
// inventory (bookkeeping corrupted out from under the simulator), Run
// must return an error — not crash the process — and count the failure.
func TestCorruptedReleaseReturnsError(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the bookkeeping mid-run: at t=5 (after the cluster is
	// placed, before its departure at t=11) release the running cluster's
	// resources behind the simulator's back, so the departure's own
	// release no longer fits.
	if _, err := sim.engine.At(5, func(float64) {
		for _, c := range sim.running {
			if err := sim.inv.ReleaseList(c.cells); err != nil {
				t.Errorf("test corruption release: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{2, 1}, 1, 10),
	}))
	if err == nil {
		t.Fatal("corrupted release did not surface an error")
	}
	if reg.Snapshot().Counters["cloudsim.release_failures"] != 1 {
		t.Error("release failure not counted")
	}
}

// TestInstrumentedRunRecordsAllFamilies drives an instrumented simulation
// (queueing + migration) and checks the queue, cloudsim, placement, and
// migration metric families plus the event trace all populate — and that
// the same seed yields a byte-identical snapshot.
func TestInstrumentedRunRecordsAllFamilies(t *testing.T) {
	run := func() (*obs.Registry, *bytes.Buffer) {
		tp, _ := plant(t)
		caps := [][]int{
			{4, 0}, {1, 0}, {0, 0},
			{0, 0}, {1, 0}, {0, 0},
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		trace := &bytes.Buffer{}
		reg := obs.NewStreamingRegistry(trace)
		sim, err := New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, Config{Migrate: true, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
			timed(0, model.Request{1, 0}, 1, 10),
			timed(1, model.Request{5, 0}, 2, 100),
			timed(2, model.Request{6, 0}, 3, 5), // must queue behind 0+1
		})); err != nil {
			t.Fatal(err)
		}
		return reg, trace
	}
	reg, trace := run()
	snap := reg.Snapshot()
	for _, name := range []string{"cloudsim.served", "queue.enqueued", "placement.place_calls", "migration.plans"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s missing; have %v", name, snap.Counters)
		}
	}
	if snap.Counters["cloudsim.migration_moves"] == 0 {
		t.Error("no migration moves recorded in the crafted scenario")
	}
	if snap.Histograms["cloudsim.wait_seconds"].N != 3 {
		t.Errorf("wait histogram N = %d, want 3", snap.Histograms["cloudsim.wait_seconds"].N)
	}
	kinds := map[string]bool{}
	for _, e := range events(t, trace) {
		kinds[e["kind"].(string)] = true
	}
	for _, k := range []string{"place", "depart", "queue_admit", "migrate"} {
		if !kinds[k] {
			t.Errorf("trace missing %q events; have %v", k, kinds)
		}
	}
	var one, two bytes.Buffer
	if err := reg.WriteMetricsJSON(&one); err != nil {
		t.Fatal(err)
	}
	again, _ := run()
	if err := again.WriteMetricsJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("instrumented snapshots differ across identical runs")
	}
}
