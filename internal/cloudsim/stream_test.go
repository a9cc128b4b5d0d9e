package cloudsim

import (
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/stats"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// streamWorkload is a saturating seeded scenario: enough contention that
// queueing, draining, and (injected) faults all fire.
func streamWorkload(t *testing.T, n int) []model.TimedRequest {
	t.Helper()
	reqs, err := workload.RandomRequests(12, n, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = 5
	timedReqs, err := workload.TimedRequests(13, reqs, arr)
	if err != nil {
		t.Fatal(err)
	}
	return timedReqs
}

// TestStreamingMetricsParity checks the streaming sketches against the
// exact samples of the same run, the dc and wait fields of its place
// events: each sketch holds one sample per served request, and its
// quantiles land within the documented ErrorBound of the exact
// percentiles. The instrumented run's metrics equal an uninstrumented
// run's.
func TestStreamingMetricsParity(t *testing.T) {
	tp := topology.PaperSimPlant()
	timedReqs := streamWorkload(t, 40)
	run := func(reg *obs.Registry) *Metrics {
		caps, err := workload.RandomCapacities(11, tp.Nodes(), 3, workload.DefaultInventoryConfig())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(timedReqs))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	reg := obs.NewRegistry()
	traced := run(reg)
	plain := run(nil)
	if traced.Served == 0 {
		t.Fatal("nothing served")
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("metrics diverge:\ntraced: %+v\nplain:  %+v", traced, plain)
	}
	dcs, waits := placeSamples(reg)
	for _, tc := range []struct {
		name    string
		sketch  *stats.Quantile
		samples []float64
	}{
		{"distance", traced.DistanceSketch, dcs},
		{"wait", traced.WaitSketch, waits},
	} {
		if got, want := tc.sketch.Count(), int64(len(tc.samples)); got != want || got != int64(traced.Served) {
			t.Errorf("%s sketch holds %d samples, want %d (served %d)", tc.name, got, want, traced.Served)
		}
		sorted := append([]float64(nil), tc.samples...)
		sort.Float64s(sorted)
		for _, p := range []float64{10, 50, 90, 99} {
			exact := stats.Percentile(sorted, p)
			got := tc.sketch.Value(p)
			if math.Abs(got-exact) > tc.sketch.ErrorBound()+1e-9 {
				t.Errorf("%s p%.0f: sketch %.4f, exact %.4f, bound %.4f",
					tc.name, p, got, exact, tc.sketch.ErrorBound())
			}
		}
	}
}

// TestRunStreamRejectsContractViolations: a source that breaks the
// strictly-increasing-ID / non-decreasing-arrival contract has those
// requests counted as rejected — conservation still holds over the whole
// stream.
func TestRunStreamRejectsContractViolations(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{1, 0}, 1, 10),
		timed(0, model.Request{1, 0}, 2, 10),          // duplicate ID
		timed(1, model.Request{1, 0}, 1.5, 10),        // OK (arrival ≥ previous accepted)
		timed(2, model.Request{1, 0}, 0.5, 10),        // goes back in time
		timed(3, model.Request{1, 0}, math.NaN(), 10), // invalid time
		timed(4, model.Request{-1, 0}, 3, 10),         // negative demand
		timed(5, model.Request{1, 0}, 3, 10),          // OK
		timed(6, model.Request{1}, 4, 10),             // too few types
		timed(7, model.Request{1, 0, 0}, 5, 10),       // too many types
		timed(8, model.Request{1, 0}, 6, 10),          // OK
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 10)
	if m.Served != 4 || m.Rejected != 6 {
		t.Errorf("served=%d rejected=%d, want 4/6", m.Served, m.Rejected)
	}
	// Each violation is rejected when it is pulled: right after the
	// arrival before it fires.
	want := []string{"0 invalid @1", "2 invalid @1.5", "3 invalid @1.5", "4 invalid @1.5",
		"6 invalid @3", "7 invalid @3"}
	if got := rejectLog(reg); !slices.Equal(got, want) {
		t.Errorf("rejects = %q, want %q", got, want)
	}
}

// A request rejected for repeating a queued request's ID leaves the
// queued one's arrival alone: when the queued request is served, its
// wait runs from its own arrival.
func TestRunStreamDuplicateOfQueuedRequest(t *testing.T) {
	tp, inv := plant(t)
	reg := obs.NewRegistry()
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{
		timed(0, model.Request{12, 12}, 1, 10), // fills the plant until t=11
		timed(1, model.Request{6, 0}, 2, 10),   // waits for it
		timed(1, model.Request{1, 0}, 3, 10),   // repeats the waiting ID
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 3)
	if m.Rejected != 1 {
		t.Errorf("rejected %d, want the duplicate alone", m.Rejected)
	}
	if _, waits := placeSamples(reg); len(waits) != 2 || waits[1] != 9 {
		t.Errorf("waits %v, want request 1 served at t=11 after waiting 9 s", waits)
	}
}

// The metrics a run returns are the caller's own: keeping them must not
// keep the simulator, and with it the inventory, tier index, event heap
// and queue, alive.
func TestMetricsDoNotPinSimulator(t *testing.T) {
	collected := make(chan struct{})
	run := func() *Metrics {
		tp, inv := plant(t)
		runtime.SetFinalizer(inv, func(*inventory.Inventory) { close(collected) })
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource([]model.TimedRequest{timed(0, model.Request{2, 1}, 0, 5)}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := run()
	// A finalizer runs on its own goroutine after the collection that
	// finds its object unreachable, so collect and yield until it
	// reports in.
	finalized := false
	for i := 0; i < 100 && !finalized; i++ {
		runtime.GC()
		runtime.Gosched()
		select {
		case <-collected:
			finalized = true
		default:
		}
	}
	if !finalized {
		t.Fatal("the returned metrics keep the run's inventory reachable")
	}
	if m.Served != 1 {
		t.Errorf("served %d, want 1", m.Served)
	}
}

// soakSim builds the soak scenario's 256-node plant (experiments.Soak's
// build: capacity seed, workload seed+1, fault seed+2, a streaming
// registry) with n open-loop requests ready to replay.
func soakSim(t *testing.T, seed int64, n int, elastic ElasticConfig) (*Simulator, model.RequestSource) {
	t.Helper()
	tp, err := topology.Uniform(2, 8, 16, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.DefaultOpenLoopConfig()
	gen, err := workload.NewOpenLoop(seed+1, n, wl)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), wl.Types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewStreamingRegistry(io.Discard)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, Config{
		Faults:    faults.Config{MTBF: 7200, MTTR: 900, RackEvery: 6, Horizon: float64(n) / wl.BaseRate},
		FaultSeed: seed + 2,
		Recovery:  RecoveryConfig{MaxAttempts: 3, Backoff: 60, Factor: 2},
		Sketch:    SketchConfig{WaitMax: 14400, Buckets: 720},
		Elastic:   elastic,
		Obs:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim, gen
}

// TestReplayAllocsPerRequest gates the replay's steady-state
// allocations: beyond the request its source hands it, a soak replay
// allocates only on rare paths (faults, queue growth), and the elastic
// soak adds its shrink victims.
func TestReplayAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	const n = 20_000
	for _, tc := range []struct {
		name    string
		elastic ElasticConfig
		max     float64
	}{
		{"soak", ElasticConfig{}, 1.5},
		{"soak-elastic", ElasticConfig{Enabled: true, GrowFactor: 0.5,
			MapFrac: mapreduce.WordCount("input").PhaseSplit(), MinPayoff: 1, DeferBackoff: 5}, 2.5},
	} {
		sim, src := soakSim(t, 2012, n, tc.elastic)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := sim.RunStream(src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, m, n)
		per := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("%s: %.2f allocs/request", tc.name, per)
		if per > tc.max {
			t.Errorf("%s replay allocates %.2f times per request, want at most %.1f", tc.name, per, tc.max)
		}
	}
}

// TestRunStreamSourceErrorAborts: a failing source surfaces its error
// instead of truncating the run silently.
func TestRunStreamSourceErrorAborts(t *testing.T) {
	tp, inv := plant(t)
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunStream(failingSource{}); err == nil {
		t.Fatal("source error did not abort the run")
	}
}

type failingSource struct{}

var errSourceBroken = errors.New("source exploded")

func (failingSource) Next() (model.TimedRequest, bool, error) {
	return model.TimedRequest{}, false, errSourceBroken
}
