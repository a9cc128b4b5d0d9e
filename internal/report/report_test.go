package report

import (
	"bytes"
	"strings"
	"testing"
)

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
	if r.ExactGap == nil || r.ExactGap.Instances != 100 {
		t.Error("exact gap missing")
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig7Balanced") {
		t.Error("JSON missing fields")
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != r.Seed || len(back.Fig7) != 4 || back.Fig5.ImprovementPct != r.Fig5.ImprovementPct {
		t.Error("round trip changed the report")
	}
}

func TestReadJSONRejects(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema":99}`)); err == nil {
		t.Error("wrong schema accepted")
	}
}
