package cloudsim

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/workload"
)

// elasticConserve asserts the resize-extended conservation identity: the
// request identity of PR 5 plus the grow-op identity, so no mid-job
// delta is double-counted — every grow terminates as exactly one of
// served, rejected, or deferred.
func elasticConserve(t *testing.T, m *Metrics, n int) {
	t.Helper()
	conserve(t, m, n)
	if got := m.Grows + m.GrowRejected + m.Deferred; got != m.GrowRequests {
		t.Errorf("resize conservation broken: grown %d + rejected %d + deferred %d = %d, want %d",
			m.Grows, m.GrowRejected, m.Deferred, got, m.GrowRequests)
	}
}

func elasticCfg() ElasticConfig {
	return ElasticConfig{Enabled: true, GrowFactor: 0.5, MapFrac: 0.4, MinPayoff: 1, DeferBackoff: 5}
}

func TestElasticValidation(t *testing.T) {
	tp, inv := plant(t)
	bad := []Config{
		{Elastic: ElasticConfig{Enabled: true, MapFrac: 0.4}},                // GrowFactor unset
		{Elastic: ElasticConfig{Enabled: true, GrowFactor: 0.5}},             // MapFrac unset
		{Elastic: ElasticConfig{Enabled: true, GrowFactor: 0.5, MapFrac: 1}}, // boundary at departure
		{Elastic: elasticCfg(), Batch: true},                                 // per-request only
		{Elastic: elasticCfg(), Migrate: true},                               // per-request only
	}
	for i, cfg := range bad {
		if _, err := New(tp, inv, &placement.OnlineHeuristic{}, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// One request on a half-empty plant: the grow is served at commission,
// the shrink fires at arrival + MapFrac·Hold, and the plant is clean
// after departure.
func TestElasticGrowShrinkLifecycle(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{4, 2}, 1, 10)}))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 1)
	if m.Served != 1 || m.GrowRequests != 1 || m.Grows != 1 || m.Shrinks != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	// ceil(0.5·4) + ceil(0.5·2) = 2 + 1.
	if m.GrowVMs != 3 {
		t.Errorf("grow VMs = %d, want 3", m.GrowVMs)
	}
	if m.MakeSpan != 11 {
		t.Errorf("makespan = %v, want 11", m.MakeSpan)
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
	var growAt, shrinkAt float64 = -1, -1
	for _, e := range reg.Events() {
		switch e.Kind {
		case "resize_grow":
			growAt = e.Time
		case "resize_shrink":
			shrinkAt = e.Time
		}
	}
	if growAt != 1 {
		t.Errorf("grow at t=%v, want 1", growAt)
	}
	if shrinkAt != 5 { // 1 + 0.4·10
		t.Errorf("shrink at t=%v, want 5", shrinkAt)
	}
}

// A job too short to repay the resize churn is rejected at admission and
// never grows.
func TestElasticDeadlineRejectsShortJob(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg()})
	if err != nil {
		t.Fatal(err)
	}
	// MapFrac·Hold = 0.8 < MinPayoff 1.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{2, 0}, 1, 2)}))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 1)
	if m.GrowRequests != 1 || m.GrowRejected != 1 || m.Grows != 0 || m.Shrinks != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// A grow with no capacity defers with backoff and expires once no retry
// can pay off before the boundary; the cluster runs at base size.
func TestElasticDeferExpires(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// {6,6} fills half the plant; its grow {3,3} needs 6 more slots of a
	// plant whose free half is taken by the second {6,6} at the same
	// instant... simpler: one request taking the whole plant.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{12, 12}, 1, 100)}))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 1)
	if m.GrowRequests != 1 || m.Deferred != 1 || m.Grows != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	kinds := map[string]int{}
	for _, e := range reg.Events() {
		kinds[e.Kind]++
	}
	if kinds["resize_defer"] == 0 || kinds["resize_expire"] != 1 {
		t.Errorf("trace kinds = %v, want defers and one expiry", kinds)
	}
}

// A deferred grow is served once a departure frees capacity inside the
// payoff window, and a boundary shrink's freed capacity serves the wait
// queue like a departure would.
func TestElasticDeferredGrowServedAfterDeparture(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 takes half the plant at t=0 and grows immediately (its
	// shrink fires at 0 + 0.4·4 = 1.6). Request 1 arrives at t=1 needing
	// the other half, which the grow is holding — it queues until the
	// shrink's drain at t=1.6. Its own grow then defers (plant full)
	// until request 0 departs at t=4 frees capacity; the retry at t=6.6
	// serves it.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{6, 6}, 0, 4),
		timed(1, model.Request{6, 6}, 1, 100),
	}))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 2)
	if m.Served != 2 || m.GrowRequests != 2 || m.Grows != 2 || m.Shrinks != 2 || m.Deferred != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, waits := placeSamples(reg); len(waits) != 2 || waits[1] != 0.6000000000000001 { // 1.6 − 1
		t.Errorf("waits = %v, want second ≈ 0.6", waits)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A fault that tears down a grown cluster cancels its pending shrink and
// releases the grown VMs with the cluster; the re-served request opens a
// fresh resize lifecycle. Conservation holds throughout.
func TestElasticTeardownCancelsPendingShrink(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(5, 8, 0, 0, 1, 2)...)
	// {4,0} sits on nodes 0–1, its grow {2,0} lands on node 2 (rack 0
	// peers first); the crash at t=5 kills all three nodes before the
	// shrink boundary at t=9, so the whole cluster dies and is re-placed
	// on the surviving rack — where its fresh grow fits again.
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{4, 0}, 1, 20)}))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 1)
	if m.Requeued != 1 || m.Served != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.GrowRequests != 2 || m.Grows != 2 || m.Shrinks != 1 {
		t.Errorf("grow requests=%d grows=%d shrinks=%d, want 2/2/1 (first shrink cancelled by teardown)",
			m.GrowRequests, m.Grows, m.Shrinks)
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
}

func elasticWorkload(t *testing.T, seed int64, n int) []model.TimedRequest {
	t.Helper()
	reqs, err := workload.RandomRequests(seed, n, 2, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	timedReqs, err := workload.TimedRequests(seed+1, reqs, workload.DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	return timedReqs
}

// Randomized sweep: elastic resizing under churn (and, on odd seeds,
// fault injection) must conserve requests and grow ops, leave the
// inventory clean, and keep its invariants.
func TestElasticRandomizedConservation(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tp, inv := plant(t)
		cfg := Config{Elastic: elasticCfg()}
		if seed%2 == 1 {
			cfg.Faults = faults.Config{MTBF: 300, MTTR: 60, Horizon: 2000}
			cfg.FaultSeed = seed
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reqs := elasticWorkload(t, seed*31, 40)
		m, err := sim.RunStream(model.NewSliceSource(reqs))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		elasticConserve(t, m, len(reqs))
		if err := inv.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		alloc := inv.AllocatedMatrix()
		for i := range alloc {
			for j, k := range alloc[i] {
				if k != 0 {
					t.Fatalf("seed %d: leaked %d VMs of type %d on node %d", seed, k, j, i)
				}
			}
		}
	}
}

// Same seed, same config → byte-identical trace and identical metrics.
func TestElasticSameSeedByteIdentical(t *testing.T) {
	run := func() (*Metrics, []byte) {
		tp, inv := plant(t)
		reg := obs.NewRegistry()
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(elasticWorkload(t, 17, 60)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteTraceJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	m1, tr1 := run()
	m2, tr2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Errorf("metrics differ across identical runs:\n%+v\n%+v", m1, m2)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("traces differ across identical runs")
	}
}

// Elastic mode must never reject a request that static mode would have
// served on the same seed: grows defer while the queue is busy and the
// boundary shrink returns its VMs, so with an unbounded queue the reject
// set (oversized/invalid admission only) is exactly the static one.
func TestElasticNeverWorseAdmission(t *testing.T) {
	rejects := func(elastic bool) (*Metrics, map[int]bool) {
		tp, inv := plant(t)
		reg := obs.NewRegistry()
		cfg := Config{Obs: reg}
		if elastic {
			cfg.Elastic = elasticCfg()
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(elasticWorkload(t, 23, 80)))
		if err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, e := range reg.Events() {
			if e.Kind != "queue_reject" {
				continue
			}
			for _, f := range e.Fields {
				if f.Key == "req" {
					set[f.Val().(int)] = true
				}
			}
		}
		return m, set
	}
	ms, staticSet := rejects(false)
	me, elasticSet := rejects(true)
	for id := range elasticSet {
		if !staticSet[id] {
			t.Errorf("elastic mode rejected request %d that static mode served", id)
		}
	}
	if me.Rejected != ms.Rejected {
		t.Errorf("rejected: elastic %d, static %d", me.Rejected, ms.Rejected)
	}
	if me.Served != ms.Served {
		t.Errorf("served: elastic %d, static %d", me.Served, ms.Served)
	}
}

// TestElasticParkWakeZeroAllocs pins the parked grow's cycle: the
// queue empties and wakeGrows re-arms the parked retry at its ladder's
// next tick, a request waits again, and the retry fires, finds it, and
// parks once more, re-arming the same event. Only the op's first park
// writes a resize_defer line. The cycle allocates nothing, with obs off
// or streaming.
func TestElasticParkWakeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	for _, tc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"obs-off", nil},
		{"streaming", obs.NewStreamingRegistry(io.Discard)},
	} {
		tp, inv := plant(t)
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: tc.reg})
		if err != nil {
			t.Fatal(err)
		}
		// One live cluster whose grow has 400 ticks to its boundary, and
		// one waiting request for it to park behind.
		c := liveCluster(sim, 0, timed(0, model.Request{1, 0}, 0, 5000), 2000)
		waiting := timed(1, model.Request{1, 0}, 0, 10)
		if err := sim.queue.Enqueue(waiting); err != nil {
			t.Fatal(err)
		}
		sim.tryGrow(c, 0) // parks, binding the retry callback and its event
		avg := testing.AllocsPerRun(200, func() {
			if err := sim.queue.Cancel(waiting.ID); err != nil {
				t.Fatal(err)
			}
			sim.wakeGrows(sim.engine.Now())
			if err := sim.queue.Enqueue(waiting); err != nil {
				t.Fatal(err)
			}
			sim.engine.Step()
		})
		if avg != 0 {
			t.Errorf("%s: park→wake→fire→re-park cycle allocates %.2f allocs/op, want 0", tc.name, avg)
		}
		if sim.failed != nil || sim.engine.Pending() != 1 || sim.engine.Processed() != 201 || sim.engine.Now() != 1005 {
			t.Errorf("%s: failed=%v pending=%d processed=%d now=%v; want 201 retries, one a tick, still parked",
				tc.name, sim.failed, sim.engine.Pending(), sim.engine.Processed(), sim.engine.Now())
		}
		if n := parkedLen(t, sim); n != 1 {
			t.Errorf("%s: %d parked grows, want 1", tc.name, n)
		}
		if got := tc.reg.EventCount(); tc.reg != nil && got != 1 {
			t.Errorf("%s: %d resize_defer events, want 1, from the first park", tc.name, got)
		}
	}
}

// liveCluster registers a one-VM cluster serving r whose {1, 0} grow is
// open with the given deadline, as commission leaves it before the
// grow's first attempt.
func liveCluster(sim *Simulator, id int, r model.TimedRequest, deadline float64) *cluster {
	c := newCluster([]affinity.VMEntry{{Node: 0, Type: 0, Count: 1}})
	c.id, c.req = id, r
	c.elasticState = elasticState{active: true, growVec: model.Request{1, 0}, deadline: deadline}
	sim.running[id] = c
	sim.resizes++
	return c
}

// parkedLen walks the parked list, checking its back links.
func parkedLen(t *testing.T, sim *Simulator) int {
	t.Helper()
	n := 0
	var prev *cluster
	for st := sim.parked; st != nil; st = st.succ {
		if st.prev != prev {
			t.Fatalf("parked list entry %d has a broken back link", n)
		}
		prev = st
		n++
	}
	return n
}

// Grows whose clusters leave while parked, before the queue ever
// empties, drop out of the parked list instead of piling up in it.
func TestElasticParkedListHoldsOnlyParkedGrows(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.queue.Enqueue(timed(0, model.Request{1, 0}, 0, 10)); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 1000; id++ {
		c := liveCluster(sim, id, timed(id, model.Request{1, 0}, 0, 100), 40)
		sim.tryGrow(c, 0)
		switch {
		case id%3 == 1: // leaves from the middle of the list
			sim.cancelElastic(sim.running[id-1], 0, "departed")
		case id%3 == 2: // leaves from its head
			sim.cancelElastic(c, 0, "departed")
		}
	}
	if sim.failed != nil || sim.metrics.Deferred != 666 {
		t.Fatalf("failed=%v deferred=%d, want 666 grows expired by departure", sim.failed, sim.metrics.Deferred)
	}
	if n := parkedLen(t, sim); n != 334 {
		t.Errorf("%d parked grows listed, want the 334 still parked", n)
	}
	if err := sim.queue.Cancel(0); err != nil {
		t.Fatal(err)
	}
	sim.wakeGrows(0)
	if sim.parked != nil || sim.engine.Pending() != 334 {
		t.Errorf("after wake: parked=%v pending=%d, want an empty list and 334 armed retries", sim.parked, sim.engine.Pending())
	}
}

// resizeTrace renders the run's place, depart and resize events as
// "t kind key=value..." lines, in trace order.
func resizeTrace(reg *obs.Registry) []string {
	var out []string
	for _, e := range reg.Events() {
		if e.Kind != "place" && e.Kind != "depart" && !strings.HasPrefix(e.Kind, "resize_") {
			continue
		}
		line := fmt.Sprintf("%g %s", e.Time, e.Kind)
		for _, f := range e.Fields {
			switch f.Key {
			case "req", "cluster", "reason", "type", "need", "avail":
				line += fmt.Sprintf(" %s=%v", f.Key, f.Val())
			}
		}
		out = append(out, line)
	}
	return out
}

func checkTrace(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("trace:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// parkScenario serves request A = {2,1} at t=10, when X's departure
// frees type 1, behind C = {2,0}, which still waits for type 0. A's
// grow {1,1} parks with its ladder at 15, 20, …, 45 (deadline 10 +
// 0.4·100 = 50). C, and with it the queue, clears when Y = {10,0}
// departs at yHold.
func parkScenario(t *testing.T, yHold float64) (*Metrics, *obs.Registry) {
	t.Helper()
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []model.TimedRequest{
		timed(0, model.Request{0, 12}, 0, 10),    // X, cluster 0
		timed(1, model.Request{10, 0}, 0, yHold), // Y, cluster 1
		timed(2, model.Request{2, 1}, 1, 100),    // A, cluster 2
		timed(3, model.Request{2, 0}, 2, 50),     // C, cluster 3
	}
	m, err := sim.RunStream(model.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, len(reqs))
	return m, reg
}

// clusterTrace keeps the resizeTrace lines of one cluster.
func clusterTrace(reg *obs.Registry, id int) []string {
	var out []string
	for _, l := range resizeTrace(reg) {
		if strings.Contains(l, fmt.Sprintf(" cluster=%d", id)) {
			out = append(out, l)
		}
	}
	return out
}

// The queue empties at t=17, between ticks: the parked grow's attempt
// comes at its next tick, 20, not at the emptying time.
func TestElasticParkWakesAtNextTick(t *testing.T) {
	_, reg := parkScenario(t, 17)
	checkTrace(t, clusterTrace(reg, 2), []string{
		"10 resize_defer req=2 cluster=2 reason=queue",
		"20 resize_grow req=2 cluster=2",
		"50 resize_shrink req=2 cluster=2",
	})
}

// The queue empties exactly at tick 20, when Y departs and C is served:
// the attempt comes at that tick, after the events that emptied it.
func TestElasticParkWakesAtEmptyingTick(t *testing.T) {
	_, reg := parkScenario(t, 20)
	got := resizeTrace(reg)
	i := slices.Index(got, "20 depart req=1")
	j := slices.Index(got, "20 place req=3")
	k := slices.Index(got, "20 resize_grow req=2 cluster=2")
	if i < 0 || j < i || k < j {
		t.Errorf("want Y's departure at t=20, C's placement, then A's grow; trace:\n  %s", strings.Join(got, "\n  "))
	}
}

// The queue never empties before A's boundary: one resize_defer at the
// park, then resize_expire at the ladder's last tick, 45.
func TestElasticParkNeverWokenExpires(t *testing.T) {
	_, reg := parkScenario(t, 60)
	checkTrace(t, clusterTrace(reg, 2), []string{
		"10 resize_defer req=2 cluster=2 reason=queue",
		"45 resize_expire req=2 cluster=2 reason=deadline",
	})
}

// Two grows whose integer ladders coincide, parked in the reverse of
// their cluster order, fire in cluster order at the tick they wake,
// after the departure that woke them. A's grow parks on capacity at
// t=0, writing its one line then, and B's parks behind C at t=10. Z's
// departure at t=20 frees type 0, serves C and empties the queue, so
// both wake at that tick.
func TestElasticParkTiedLaddersFireInIDOrder(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []model.TimedRequest{
		timed(0, model.Request{10, 0}, 0, 20), // Z, cluster 0
		timed(1, model.Request{2, 0}, 0, 100), // A, cluster 1
		timed(2, model.Request{0, 12}, 0, 10), // X, cluster 2
		timed(3, model.Request{0, 1}, 6, 100), // B, cluster 3
		timed(4, model.Request{3, 0}, 7, 50),  // C, cluster 4
	}
	m, err := sim.RunStream(model.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, len(reqs))
	var got []string
	for _, l := range resizeTrace(reg) {
		if strings.HasPrefix(l, "20 ") || strings.HasPrefix(l, "10 resize_defer") {
			got = append(got, l)
		}
	}
	checkTrace(t, got, []string{
		"10 resize_defer req=3 cluster=3 reason=queue",
		"20 depart req=0",
		"20 place req=4",
		"20 resize_grow req=4 cluster=4",
		"20 resize_grow req=1 cluster=1",
		"20 resize_grow req=3 cluster=3",
	})
}

// runElastic runs reqs, with the given faults, on the 6-node plant with
// the test resize policy, and returns the simulator and its trace.
func runElastic(t *testing.T, reqs []model.TimedRequest, evs ...faults.Event) (*Simulator, *obs.Registry) {
	t.Helper()
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, evs...)
	m, err := sim.RunStream(model.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, len(reqs))
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return sim, reg
}

// X = {4,0} and Y = {4,0} grow by {2,0} at t=0 and fill type 0; X's
// shrink at 4.8 gives back two slots, which A = {2,0} takes at t=5. A's
// grow {1,0} parks on capacity, with its ladder at 10, 15, …, 40
// (deadline 5 + 0.4·100 = 45). X's departure at t=12, between ticks,
// wakes it, and it runs at the next tick, 15, after its one
// resize_defer line.
func TestElasticCapacityWakesAtNextTick(t *testing.T) {
	_, reg := runElastic(t, []model.TimedRequest{
		timed(0, model.Request{4, 0}, 0, 12),  // X, cluster 0
		timed(1, model.Request{4, 0}, 0, 200), // Y, cluster 1
		timed(2, model.Request{2, 0}, 5, 100), // A, cluster 2
	})
	checkTrace(t, clusterTrace(reg, 2), []string{
		"5 resize_defer req=2 cluster=2 reason=capacity type=0 need=1 avail=0",
		"15 resize_grow req=2 cluster=2",
		"45 resize_shrink req=2 cluster=2",
	})
}

// capacityBlocked fills the plant's type 0 with X = {4,4}, which grows
// into all of the first rack, C = {3,0} with its grow {2,0}, and then
// A = {1,0}, whose grow {1,0} parks on capacity at t=1 with its ladder
// at 6, 11, …, 36 (deadline 1 + 0.4·100 = 41). X and C hold their
// slots past A's boundary.
func capacityBlocked(extra ...model.TimedRequest) []model.TimedRequest {
	return append([]model.TimedRequest{
		timed(0, model.Request{4, 4}, 0, 200),   // X, cluster 0
		timed(1, model.Request{3, 0}, 0.5, 200), // C, cluster 1
		timed(2, model.Request{1, 0}, 1, 100),   // A, cluster 2
	}, extra...)
}

// The crash at t=8 kills nodes 0 and 1, four of X's type-0 VMs among
// them. Nothing is free to evacuate X, so teardown releases its
// survivors on node 2, and X's re-placement does not fit the two type-0
// slots that frees. No drain follows before the repair at t=60: the
// teardown's release alone wakes A's grow, which runs at the next tick,
// 11.
func TestElasticCapacityWakesAfterTeardown(t *testing.T) {
	_, reg := runElastic(t, capacityBlocked(), pair(8, 60, 0, 0, 1)...)
	checkTrace(t, clusterTrace(reg, 2), []string{
		"1 resize_defer req=2 cluster=2 reason=capacity type=0 need=1 avail=0",
		"11 resize_grow req=2 cluster=2",
		"41 resize_shrink req=2 cluster=2",
	})
}

// B = {0,2}'s shrink and departure free type 1 only, so the wakes they
// run leave A's grow parked. Its retry fires once, at the ladder's last
// tick, 36, where the grow expires.
func TestElasticCapacityNeverFreedExpires(t *testing.T) {
	sim, reg := runElastic(t, capacityBlocked(timed(3, model.Request{0, 2}, 2, 20)))
	checkTrace(t, clusterTrace(reg, 2), []string{
		"1 resize_defer req=2 cluster=2 reason=capacity type=0 need=1 avail=0",
		"36 resize_expire req=2 cluster=2 reason=deadline",
	})
	// Four arrivals, four departures, the shrinks of X, C and B, and
	// A's one retry: none at the ticks before its last.
	if got := sim.engine.Processed(); got != 12 {
		t.Errorf("processed %d events, want 12", got)
	}
}

// A parked grow whose cluster a crash tears down expires once, as
// teardown; its stale parked entry never wakes or expires again.
func TestElasticParkTeardownCountsOnce(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	inject(sim, pair(30, 60, 0, 0, 1, 2)...)
	reqs := []model.TimedRequest{
		timed(0, model.Request{0, 12}, 0, 10),
		timed(2, model.Request{2, 1}, 1, 100),
		timed(3, model.Request{0, 12}, 2, 50),
	}
	m, err := sim.RunStream(model.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, len(reqs))
	checkTrace(t, clusterTrace(reg, 1), []string{
		"10 resize_defer req=2 cluster=1 reason=queue",
		"30 resize_expire req=2 cluster=1 reason=teardown",
	})
	expires := 0
	for _, e := range reg.Events() {
		if e.Kind == "resize_expire" {
			expires++
		}
	}
	if m.Requeued != 1 || m.Deferred != expires {
		t.Errorf("requeued %d, deferred %d, resize_expire events %d; want 1 requeue and one expiry per deferred grow",
			m.Requeued, m.Deferred, expires)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
