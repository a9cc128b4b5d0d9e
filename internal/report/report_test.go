package report

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestCollectAndRoundTrip: the collected report is complete, and its
// JSON decodes back into an identical report, so no figure is lost on
// the way to paperrepro -json's readers.
func TestCollectAndRoundTrip(t *testing.T) {
	r, err := Collect(2012)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema != SchemaVersion || r.Seed != 2012 {
		t.Errorf("header wrong: %+v", r)
	}
	if len(r.Fig2) == 0 || len(r.Fig3) == 0 || len(r.Fig4) == 0 {
		t.Error("simulation figures empty")
	}
	if r.Fig5 == nil || r.Fig6 == nil || len(r.Fig5.Rows) != 20 {
		t.Error("fig5/6 missing")
	}
	if len(r.Fig7) != 4 || len(r.Fig7Skewed) != 4 {
		t.Error("fig7 variants missing")
	}
	if r.Anomaly == nil {
		t.Error("skewed anomaly not recorded at seed 2012")
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig7Balanced") {
		t.Error("JSON missing fields")
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var back Report
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, r) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", &back, r)
	}
}
