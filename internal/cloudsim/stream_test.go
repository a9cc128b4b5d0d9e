package cloudsim

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
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

// TestRunStreamMatchesRun pins Run's any-order contract: a shuffled
// copy of the workload fed through Run and the sorted workload streamed
// through RunStream (including an active fault schedule, batching, and
// migration) must produce equal Metrics and byte-identical registry
// snapshots and event traces. The workload has no arrival ties, so Run's
// stable sort restores exactly the streamed order.
func TestRunStreamMatchesRun(t *testing.T) {
	tp := topology.PaperSimPlant()
	timedReqs := streamWorkload(t, 30)
	for i := 1; i < len(timedReqs); i++ {
		if timedReqs[i].Arrival <= timedReqs[i-1].Arrival {
			t.Fatalf("workload arrivals not strictly increasing at %d", i)
		}
	}
	shuffled := append([]model.TimedRequest(nil), timedReqs...)
	rand.New(rand.NewSource(15)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if reflect.DeepEqual(shuffled, timedReqs) {
		t.Fatal("shuffle left the workload sorted")
	}
	run := func(stream bool) (*Metrics, []byte) {
		caps, err := workload.RandomCapacities(11, tp.Nodes(), 3, workload.InventoryConfig{MaxPerType: 2})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sim, err := New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, Config{
			Policy:        queue.FIFO,
			Batch:         true,
			Migrate:       true,
			Faults:        faults.Config{MTBF: 40, MTTR: 60, Horizon: 250, RackEvery: 2},
			FaultSeed:     14,
			Obs:           reg,
			RetainSamples: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var m *Metrics
		if stream {
			m, err = sim.RunStream(model.NewSliceSource(timedReqs))
		} else {
			m, err = sim.Run(shuffled)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteTraceJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return m, buf.Bytes()
	}
	eager, eagerReg := run(false)
	lazy, lazyReg := run(true)
	if eager.Failures == 0 || eager.Served == 0 {
		t.Fatalf("degenerate scenario: %+v", eager)
	}
	if !reflect.DeepEqual(eager, lazy) {
		t.Errorf("metrics diverge:\neager: %+v\nlazy:  %+v", eager, lazy)
	}
	if !bytes.Equal(eagerReg, lazyReg) {
		t.Error("registry snapshot/trace diverge between Run and RunStream")
	}
}

// TestStreamingMetricsParity compares the default streaming-sketch mode
// against retained mode on the same workload: every counter is
// identical, the retained slices exist only when asked for, and the
// sketch quantiles land within the documented ErrorBound of the exact
// retained percentiles.
func TestStreamingMetricsParity(t *testing.T) {
	tp := topology.PaperSimPlant()
	timedReqs := streamWorkload(t, 40)
	run := func(retain bool) *Metrics {
		caps, err := workload.RandomCapacities(11, tp.Nodes(), 3, workload.DefaultInventoryConfig())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{RetainSamples: retain})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(timedReqs))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	retained := run(true)
	streaming := run(false)
	if retained.Served == 0 {
		t.Fatal("nothing served")
	}
	if streaming.Distances != nil || streaming.Waits != nil {
		t.Error("streaming mode retained exact samples")
	}
	if len(retained.Distances) != retained.Served || len(retained.Waits) != retained.Served {
		t.Fatalf("retained sample counts: %d distances, %d waits, served %d",
			len(retained.Distances), len(retained.Waits), retained.Served)
	}
	// Counters must not depend on the sample mode.
	if streaming.Served != retained.Served || streaming.Rejected != retained.Rejected ||
		streaming.Unplaced != retained.Unplaced || streaming.TotalDistance != retained.TotalDistance ||
		streaming.MakeSpan != retained.MakeSpan || streaming.UtilizationAvg != retained.UtilizationAvg {
		t.Errorf("counters diverge:\nretained:  %+v\nstreaming: %+v", retained, streaming)
	}
	// Both modes carry the same sketches...
	if !reflect.DeepEqual(retained.DistanceSketch, streaming.DistanceSketch) ||
		!reflect.DeepEqual(retained.WaitSketch, streaming.WaitSketch) {
		t.Error("sketches diverge between modes")
	}
	// ...and the sketches agree with the exact samples within ErrorBound.
	for _, tc := range []struct {
		name    string
		sketch  *stats.Quantile
		samples []float64
	}{
		{"distance", streaming.DistanceSketch, retained.Distances},
		{"wait", streaming.WaitSketch, retained.Waits},
	} {
		if got, want := tc.sketch.Count(), int64(len(tc.samples)); got != want {
			t.Errorf("%s sketch holds %d samples, want %d", tc.name, got, want)
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
	sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{})
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
	}))
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, 7)
	if m.Served != 3 || m.Rejected != 4 {
		t.Errorf("served=%d rejected=%d, want 3/4", m.Served, m.Rejected)
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

func (failingSource) Next() (model.TimedRequest, bool, error) {
	return model.TimedRequest{}, false, errTestBroken
}
