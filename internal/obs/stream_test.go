package obs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// emitSample drives one fixed event sequence into r.
func emitSample(r *Registry) {
	r.Emit("place", 0, F("req", 1), F("dc", 14.25), F("center", 3))
	r.Emit("queue_reject", 1.5, F("req", 2), F("reason", "queue_full"))
	r.Emit("fault", 2.75, F("nodes", []int{4, 5}), F("ok", true))
	r.Emit("depart", 10, F("req", 1))
}

// TestStreamingRetainsNothing checks the memory contract: a registry
// counts every event, and one whose sink is nil, like NewRegistry's,
// encodes none of them.
func TestStreamingRetainsNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		sink io.Writer
	}{
		{"buffer", &bytes.Buffer{}},
		{"nil", nil},
	} {
		r := NewStreamingRegistry(tc.sink)
		emitSample(r)
		if r.EventCount() != 4 {
			t.Fatalf("%s sink: EventCount = %d, want 4", tc.name, r.EventCount())
		}
		if tc.sink == nil && (r.sink != nil || r.sinkBuf != nil) {
			t.Fatalf("nil sink: the registry kept a trace (%d bytes encoded)", len(r.sinkBuf))
		}
	}
}

type failWriter struct {
	allow int
	err   error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.allow <= 0 {
		return 0, w.err
	}
	w.allow--
	return len(p), nil
}

// TestStreamingSinkErrorLatched checks the first write error is surfaced
// and later emits still count without writing.
func TestStreamingSinkErrorLatched(t *testing.T) {
	wantErr := errors.New("disk full")
	r := NewStreamingRegistry(&failWriter{allow: 1, err: wantErr})
	emitSample(r)
	if err := r.SinkErr(); !errors.Is(err, wantErr) {
		t.Fatalf("SinkErr = %v, want %v", err, wantErr)
	}
	if r.EventCount() != 4 {
		t.Fatalf("EventCount = %d, want 4", r.EventCount())
	}
}

// TestStreamingMetricsUnaffected checks a registry with a sink keeps
// its metrics as one without does.
func TestStreamingMetricsUnaffected(t *testing.T) {
	r := NewStreamingRegistry(&bytes.Buffer{})
	r.Counter("placements").Add(3)
	r.Gauge("util").Set(0.5)
	r.Histogram("dc", 0, 10, 4).Observe(2)
	s := r.Snapshot()
	if s.Counters["placements"] != 3 || s.Gauges["util"] != 0.5 || s.Histograms["dc"].N != 1 {
		t.Fatalf("metric snapshot wrong: %+v", s)
	}
}
