// Package obs is the observability layer of the simulation stack: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// fixed-bucket histograms) plus a structured event trace for per-decision
// telemetry (placement decisions, queue admission, migration moves,
// MapReduce phase boundaries).
//
// Design rules:
//
//   - Nil safety. Every handle method no-ops on a nil receiver and every
//     Registry method is safe on a nil *Registry, so uninstrumented
//     callers pay nothing: components resolve their handles once at
//     construction time and the hot path is a nil check plus an atomic
//     add.
//   - Determinism. Recorded values never come from the wall clock —
//     event timestamps are eventsim virtual time supplied by the caller —
//     and both export formats (the JSON metrics snapshot and the JSONL
//     trace) serialize with sorted metric names and ordered event fields,
//     so two runs with the same seed produce byte-identical output.
//   - Concurrency. Counters and gauges are atomics and histograms take a
//     short mutex, so instrumented components stay safe under the
//     experiment worker pool. Event append order across goroutines is,
//     however, scheduler-dependent; deterministic traces require a
//     single-threaded simulation (which is how the instrumented runners
//     drive it).
package obs

import (
	"io"
	"math"
	"sync"
	"sync/atomic"

	"affinitycluster/internal/stats"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a floating-point level that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores x. No-op on a nil receiver.
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed equal-width buckets over
// [Min, Max] through a stats.Quantile, which also tracks out-of-range
// samples and the running sum/count so a mean survives even when samples
// escape the range.
type Histogram struct {
	mu       sync.Mutex
	min, max float64
	q        *stats.Quantile
}

// Observe adds one sample. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.q.Observe(x)
	h.mu.Unlock()
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Counts []int64 `json:"counts"`
	Under  int64   `json:"under"`
	Over   int64   `json:"over"`
	Sum    float64 `json:"sum"`
	N      int64   `json:"n"`
}

// Mean returns the average of all observed samples (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Min:    h.min,
		Max:    h.max,
		Counts: h.q.Counts(),
		Under:  h.q.Under(),
		Over:   h.q.Over(),
		Sum:    h.q.Sum(),
		N:      h.q.Count(),
	}
}

// Registry is a named collection of metrics plus the event trace. The
// zero value is not usable; call NewRegistry. A nil *Registry is a valid
// no-op sink: every lookup returns a nil handle and Emit does nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   []Event
	nEvents  int

	// Streaming mode (NewStreamingRegistry): events are encoded into
	// sinkBuf and written to sink as they are emitted instead of being
	// retained in events. sinkErr latches the first write failure.
	sink    io.Writer
	sinkBuf []byte
	sinkErr error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// NewStreamingRegistry creates a registry whose event trace streams to w
// as JSONL — each Emit writes exactly the bytes WriteTraceJSONL would
// have produced for that event — instead of being retained in memory.
// Metrics behave exactly as in a retained registry. Long soak runs use
// this so instrumentation stays O(1) in the event count; wrap w in a
// bufio.Writer (and flush it after the run) when writing to a file.
func NewStreamingRegistry(w io.Writer) *Registry {
	r := NewRegistry()
	r.sink = w
	return r
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil registry.
//
//lint:shared metric handles are shared by design; updates are atomic
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
//
//lint:shared metric handles are shared by design; updates are atomic
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use; later calls reuse the existing bounds. Returns nil
// (a valid no-op handle) on a nil registry or invalid bounds.
//
//lint:shared metric handles are shared by design; updates are locked
func (r *Registry) Histogram(name string, min, max float64, buckets int) *Histogram {
	if r == nil || buckets <= 0 || !(max > min) {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: min, max: max, q: stats.NewQuantile(min, max, buckets)}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric, shaped for
// JSON export. Map keys serialize sorted (encoding/json), so the snapshot
// of a deterministic run is byte-identical across runs.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current metric values. Returns an empty snapshot on
// a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
