package cloudsim

import (
	"bytes"
	"io"
	"reflect"
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
		{Elastic: elasticCfg(), BatchWindow: 3},                              // per-request only
	}
	for i, cfg := range bad {
		if _, err := New(tp, inv, &placement.OnlineHeuristic{}, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(tp, inv, &placement.OnlineHeuristic{Policy: placement.RandomCenter}, Config{Elastic: elasticCfg()}); err == nil {
		t.Error("elastic with non-indexed placer accepted")
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
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{4, 2}, 1, 10)})
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
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{2, 0}, 1, 2)})
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
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{12, 12}, 1, 100)})
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
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Elastic: elasticCfg(), RetainSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	// Request 0 takes half the plant at t=0 and grows immediately (its
	// shrink fires at 0 + 0.4·4 = 1.6). Request 1 arrives at t=1 needing
	// the other half, which the grow is holding — it queues until the
	// shrink's drain at t=1.6. Its own grow then defers (plant full)
	// until request 0 departs at t=4 frees capacity; the retry at t=6.6
	// serves it.
	m, err := sim.Run([]model.TimedRequest{
		timed(0, model.Request{6, 6}, 0, 4),
		timed(1, model.Request{6, 6}, 1, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	elasticConserve(t, m, 2)
	if m.Served != 2 || m.GrowRequests != 2 || m.Grows != 2 || m.Shrinks != 2 || m.Deferred != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if len(m.Waits) != 2 || m.Waits[1] != 0.6000000000000001 { // 1.6 − 1
		t.Errorf("waits = %v, want second ≈ 0.6", m.Waits)
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
	m, err := sim.Run([]model.TimedRequest{timed(0, model.Request{4, 0}, 1, 20)})
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
		m, err := sim.Run(reqs)
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
		m, err := sim.Run(elasticWorkload(t, 17, 60))
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
		m, err := sim.Run(elasticWorkload(t, 23, 80))
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

// TestElasticDeferRetryZeroAllocs pins the re-armed retry handle: once a
// grow has deferred, every further retry — the retry fires, tryGrow
// finds requests waiting and defers again, emitting resize_defer and
// re-arming the same event — allocates nothing, with obs off or
// streaming.
func TestElasticDeferRetryZeroAllocs(t *testing.T) {
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
		// One live cluster whose grow is far from its boundary, and one
		// waiting request, so every retry defers behind the queue.
		const id = 0
		sim.running[id] = newCluster([]affinity.VMEntry{{Node: 0, Type: 0, Count: 1}})
		sim.reqOf[id] = timed(0, model.Request{1, 0}, 0, 1e9)
		sim.elastic[id] = &elasticState{growVec: model.Request{1, 0}, deadline: 1e9}
		if err := sim.queue.Enqueue(timed(1, model.Request{1, 0}, 0, 10)); err != nil {
			t.Fatal(err)
		}
		sim.deferGrow(id, 0) // binds the retry callback and its event
		if avg := testing.AllocsPerRun(200, func() { sim.engine.Step() }); avg != 0 {
			t.Errorf("%s: defer→re-arm retry cycle allocates %.2f allocs/op, want 0", tc.name, avg)
		}
		if sim.failed != nil || sim.engine.Pending() != 1 || sim.engine.Processed() != 201 {
			t.Errorf("%s: failed=%v pending=%d processed=%d; want a live retry chain of 201 retries",
				tc.name, sim.failed, sim.engine.Pending(), sim.engine.Processed())
		}
		if got := tc.reg.EventCount(); tc.reg != nil && got != 202 {
			t.Errorf("%s: %d resize_defer events, want 202", tc.name, got)
		}
	}
}
