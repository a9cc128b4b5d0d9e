package trace

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/workload"
)

// FuzzTraceReader drives NewReader and Next with arbitrary bytes. Every
// input is either rejected with an error or yields requests that keep
// the stream contract: a vector as wide as Types(), of non-negative
// counts not all zero, finite non-negative arrival and hold, strictly
// increasing IDs and non-decreasing arrivals. Every accepted request
// round-trips unchanged through a Writer and a second Reader. No input
// may panic.
func FuzzTraceReader(f *testing.F) {
	f.Add(gentraceStream(f))
	for _, in := range badHeaders {
		f.Add([]byte(in))
	}
	for _, line := range badLines {
		f.Add([]byte(rejectHeader + line + "\n"))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // rejected: acceptable for arbitrary input
		}
		var got []model.TimedRequest
		for {
			r, ok, err := rd.Next()
			if err != nil || !ok {
				break // a rejected line ends the stream; what came before stands
			}
			checkContract(t, rd.Types(), got, r)
			got = append(got, r)
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, rd.Description(), rd.Types())
		if err != nil {
			t.Fatalf("writer refused the accepted header: %v", err)
		}
		for _, r := range got {
			if err := w.Write(r); err != nil {
				t.Fatalf("writer refused accepted request %+v: %v", r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("rereading the written stream: %v", err)
		}
		if again.Types() != rd.Types() || again.Description() != rd.Description() {
			t.Fatalf("header (%d, %q) reread as (%d, %q)", rd.Types(), rd.Description(), again.Types(), again.Description())
		}
		for i, want := range got {
			r, ok, err := again.Next()
			if err != nil || !ok {
				t.Fatalf("request %d of %d did not reread: ok %v, error %v", i, len(got), ok, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("request %d reread as %+v, want %+v", i, r, want)
			}
		}
		if r, ok, err := again.Next(); ok || err != nil {
			t.Fatalf("reread stream continues past its %d requests: %+v, error %v", len(got), r, err)
		}
	})
}

// checkContract fails t unless r, read after prev, keeps the stream
// contract of a types-wide trace.
func checkContract(t *testing.T, types int, prev []model.TimedRequest, r model.TimedRequest) {
	t.Helper()
	if len(r.Vector) != types {
		t.Fatalf("request %d has %d types, trace declares %d", r.ID, len(r.Vector), types)
	}
	total := 0
	for _, k := range r.Vector {
		if k < 0 {
			t.Fatalf("request %d has a negative count: %v", r.ID, r.Vector)
		}
		total += k
	}
	if total == 0 {
		t.Fatalf("request %d asks for no VMs", r.ID)
	}
	for _, v := range []float64{r.Arrival, r.Hold} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("request %d has invalid time (arrival %v, hold %v)", r.ID, r.Arrival, r.Hold)
		}
	}
	if n := len(prev); n > 0 {
		if p := prev[n-1]; r.ID <= p.ID || r.Arrival < p.Arrival {
			t.Fatalf("request %d at %v follows request %d at %v", r.ID, r.Arrival, p.ID, p.Arrival)
		}
	}
}

// gentraceStream is what gentrace writes with its default flags: 20
// Normal-scenario requests of 3 types at seed 1.
func gentraceStream(f *testing.F) []byte {
	reqs, err := workload.RandomRequests(1, 20, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		f.Fatal(err)
	}
	timed, err := workload.TimedRequests(2, reqs, workload.DefaultArrivalConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "seed 1, normal scenario, 20 requests", 3)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := CopySource(w, model.NewSliceSource(timed)); err != nil {
		f.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
