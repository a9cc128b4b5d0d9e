package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge accumulated")
	}
	h := r.Histogram("z", 0, 10, 5)
	h.Observe(4)
	r.Emit("evt", 1.5, F("a", 1))
	if r.EventCount() != 0 {
		t.Error("nil registry counted events")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := r.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if r.RenderSummary() != "" {
		t.Error("nil registry rendered a summary")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("served")
	c.Inc()
	c.Add(2)
	if got := r.Counter("served").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	g := r.Gauge("depth")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("wait", 0, 10, 5)
	for _, x := range []float64{-1, 0, 1, 5, 10, 11} {
		h.Observe(x)
	}
	snap := r.Snapshot().Histograms["wait"]
	if snap.N != 6 || snap.Under != 1 || snap.Over != 1 {
		t.Fatalf("histogram snapshot = %+v", snap)
	}
	if snap.Counts[0] != 2 { // 0 and 1 land in [0,2)
		t.Errorf("bucket 0 = %d, want 2", snap.Counts[0])
	}
	if snap.Counts[4] != 1 { // x == max lands in the last bucket
		t.Errorf("bucket 4 = %d, want 1", snap.Counts[4])
	}
	if snap.Mean() != 26.0/6 {
		t.Errorf("mean = %v", snap.Mean())
	}
	// Re-registering reuses the original bounds.
	if r.Histogram("wait", 0, 99, 2) != h {
		t.Error("re-registration created a second histogram")
	}
	if r.Histogram("bad", 5, 5, 3) != nil {
		t.Error("invalid bounds accepted")
	}
}

// TestHistogramIgnoresNaN: a NaN sample belongs to no bucket, so it
// leaves every field of the snapshot, the mean included, as it was.
func TestHistogramIgnoresNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dc", 0, 10, 5)
	h.Observe(3)
	before := r.Snapshot().Histograms["dc"]
	h.Observe(math.NaN())
	after := r.Snapshot().Histograms["dc"]
	if !reflect.DeepEqual(after, before) {
		t.Errorf("snapshot after NaN = %+v, want %+v", after, before)
	}
	if after.Mean() != 3 {
		t.Errorf("mean = %v, want 3", after.Mean())
	}
}

// TestSnapshotDoesNotAliasHistogram: a snapshot's bucket counts are a
// copy, so later observations do not reach a snapshot already taken and
// writes to the snapshot do not reach the histogram.
func TestSnapshotDoesNotAliasHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait", 0, 10, 5)
	h.Observe(1)
	first := r.Snapshot().Histograms["wait"]
	h.Observe(1)
	if first.Counts[0] != 1 {
		t.Errorf("earlier snapshot's bucket 0 = %d after a later Observe, want 1", first.Counts[0])
	}
	first.Counts[0] = 99
	if got := r.Snapshot().Histograms["wait"].Counts[0]; got != 2 {
		t.Errorf("bucket 0 = %d after writing a snapshot, want 2", got)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("b.count").Add(7)
		r.Counter("a.count").Add(2)
		r.Gauge("m.level").Set(0.25)
		r.Histogram("h.wait", 0, 100, 10).Observe(33)
		return r
	}
	var one, two bytes.Buffer
	if err := mk().WriteMetricsJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := mk().WriteMetricsJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("metric snapshots differ across identical runs")
	}
	var snap Snapshot
	if err := json.Unmarshal(one.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["b.count"] != 7 {
		t.Errorf("roundtrip lost counter: %+v", snap)
	}
}

func TestTraceJSONL(t *testing.T) {
	var buf bytes.Buffer
	r := NewStreamingRegistry(&buf)
	r.Emit("place", 1.5, F("req", 3), F("center", 7), F("dc", 14.25), F("placer", "online-heuristic"))
	r.Emit("queue_reject", 2, F("req", 4), F("reason", "full"))
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	want := `{"t":1.5,"kind":"place","req":3,"center":7,"dc":14.25,"placer":"online-heuristic"}`
	if lines[0] != want {
		t.Errorf("line 0 = %s\nwant     %s", lines[0], want)
	}
	want1 := map[string]any{"t": 2.0, "kind": "queue_reject", "req": 4.0, "reason": "full"}
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if i == 1 && !reflect.DeepEqual(m, want1) {
			t.Errorf("line 1 decodes to %v, want %v", m, want1)
		}
	}
}

func TestRenderSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("placement.place_calls").Add(20)
	r.Gauge("queue.depth").Set(3)
	r.Histogram("cloudsim.wait_seconds", 0, 50, 10).Observe(12)
	r.Emit("place", 0)
	out := r.RenderSummary()
	for _, want := range []string{"placement.place_calls", "queue.depth", "cloudsim.wait_seconds", "trace: 1 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h", 0, 1000, 10).Observe(float64(i))
				r.Emit("e", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.EventCount(); got != 8000 {
		t.Errorf("events = %d, want 8000", got)
	}
}

func TestTraceIntSliceField(t *testing.T) {
	var buf bytes.Buffer
	r := NewStreamingRegistry(&buf)
	r.Emit("fault", 3, F("nodes", []int{4, 5, 6}), F("empty", []int{}))
	want := `{"t":3,"kind":"fault","nodes":[4,5,6],"empty":[]}`
	got := strings.TrimSuffix(buf.String(), "\n")
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(got), &m); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
}
