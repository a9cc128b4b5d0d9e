package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affinitycluster/internal/model"
)

func streamReqs() []model.TimedRequest {
	return []model.TimedRequest{
		{ID: 0, Vector: model.Request{1, 0, 2}, Arrival: 1.5, Hold: 10},
		{ID: 1, Vector: model.Request{0, 3, 0}, Arrival: 1.5, Hold: 5},
		{ID: 5, Vector: model.Request{2, 2, 2}, Arrival: 9, Hold: 0},
	}
}

// TestStreamRoundTrip: write → read reproduces the requests exactly,
// header metadata included.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "round trip", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range streamReqs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Types() != 3 || rd.Description() != "round trip" {
		t.Errorf("header: types %d, description %q", rd.Types(), rd.Description())
	}
	var got []model.TimedRequest
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	want := streamReqs()
	if len(got) != len(want) {
		t.Fatalf("got %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Arrival != want[i].Arrival ||
			got[i].Hold != want[i].Hold {
			t.Errorf("request %d: got %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Vector {
			if got[i].Vector[j] != want[i].Vector[j] {
				t.Errorf("request %d vector: got %v, want %v", i, got[i].Vector, want[i].Vector)
			}
		}
	}
}

// TestStreamReaderIgnoresPriority: traces written while requests carried
// a "prio" field still replay; the field is ignored.
func TestStreamReaderIgnoresPriority(t *testing.T) {
	in := `{"version":1,"format":"jsonl","types":2}
{"id":0,"vec":[1,2],"at":1,"hold":3,"prio":2}
`
	rd, err := NewReader(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	r, ok, err := rd.Next()
	if err != nil || !ok || r.ID != 0 || r.Arrival != 1 || r.Hold != 3 || len(r.Vector) != 2 || r.Vector[1] != 2 {
		t.Fatalf("Next = %+v, %v, %v", r, ok, err)
	}
}

// TestStreamFileRoundTrip covers CreateFile with a Reader over the file,
// and that Reader satisfies model.RequestSource.
func TestStreamFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	w, err := CreateFile(path, "file trip", 3)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := CopySource(w, model.NewSliceSource(streamReqs())); err != nil || n != 3 {
		t.Fatalf("CopySource = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var src model.RequestSource = rd
	n := 0
	for {
		_, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Errorf("replayed %d requests, want 3", n)
	}
}

// TestStreamWriterRejects pins the incremental validation: each invariant
// violation is refused at Write time.
func TestStreamWriterRejects(t *testing.T) {
	newW := func() *Writer {
		w, err := NewWriter(&bytes.Buffer{}, "", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(model.TimedRequest{ID: 3, Vector: model.Request{1, 1}, Arrival: 5, Hold: 1}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	cases := []struct {
		name string
		r    model.TimedRequest
	}{
		{"duplicate ID", model.TimedRequest{ID: 3, Vector: model.Request{1, 1}, Arrival: 6, Hold: 1}},
		{"decreasing ID", model.TimedRequest{ID: 2, Vector: model.Request{1, 1}, Arrival: 6, Hold: 1}},
		{"earlier arrival", model.TimedRequest{ID: 4, Vector: model.Request{1, 1}, Arrival: 4, Hold: 1}},
		{"wrong vector size", model.TimedRequest{ID: 4, Vector: model.Request{1, 1, 1}, Arrival: 6, Hold: 1}},
		{"negative count", model.TimedRequest{ID: 4, Vector: model.Request{-1, 2}, Arrival: 6, Hold: 1}},
		{"zero VMs", model.TimedRequest{ID: 4, Vector: model.Request{0, 0}, Arrival: 6, Hold: 1}},
		{"negative hold", model.TimedRequest{ID: 4, Vector: model.Request{1, 1}, Arrival: 6, Hold: -1}},
	}
	for _, tc := range cases {
		if err := newW().Write(tc.r); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if _, err := NewWriter(&bytes.Buffer{}, "", 0); err == nil {
		t.Error("zero types accepted")
	}
}

// badHeaders are streams NewReader must reject; badLines are request
// lines, after rejectHeader, that Next must reject. FuzzTraceReader
// seeds its corpus with both.
var (
	badHeaders = map[string]string{
		"empty":          "",
		"not json":       "hello\n",
		"wrong format":   `{"version":1,"format":"csv","types":3}` + "\n",
		"wrong version":  `{"version":9,"format":"jsonl","types":3}` + "\n",
		"no types":       `{"version":1,"format":"jsonl"}` + "\n",
		"plain document": `{"version":1,"types":3,"requests":[]}` + "\n",
	}
	rejectHeader = `{"version":1,"format":"jsonl","types":2}` + "\n"
	badLines     = map[string]string{
		"bad json":     "not json",
		"dup id":       `{"id":1,"vec":[1,0],"at":1,"hold":1}` + "\n" + `{"id":1,"vec":[1,0],"at":2,"hold":1}`,
		"time travel":  `{"id":1,"vec":[1,0],"at":5,"hold":1}` + "\n" + `{"id":2,"vec":[1,0],"at":4,"hold":1}`,
		"zero request": `{"id":1,"vec":[0,0],"at":1,"hold":1}`,
	}
)

// TestStreamReaderRejects: malformed headers and invalid lines fail with
// a line-numbered error instead of yielding garbage.
func TestStreamReaderRejects(t *testing.T) {
	for name, in := range badHeaders {
		if _, err := NewReader(strings.NewReader(in)); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
	for name, line := range badLines {
		rd, err := NewReader(strings.NewReader(rejectHeader + line + "\n"))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		ok := true
		for err == nil && ok {
			_, ok, err = rd.Next()
		}
		if err == nil {
			t.Errorf("%s accepted", name)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("%s error %q lacks line number", name, err)
		}
	}
}
