package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The default elastic scenario must exercise the resize machinery end to
// end — grows served, shrinks fired at the boundary — and its ledger
// must conserve grow ops the way the request identity conserves
// requests.
func TestElasticDefaultExercisesResizePaths(t *testing.T) {
	cfg := DefaultElasticConfig()
	res, err := Elastic(2012, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Elastic
	t.Logf("growReqs=%d grows=%d vms=%d shrinks=%d rejected=%d deferred=%d",
		e.GrowRequests, e.Grows, e.GrowVMs, e.Shrinks, e.GrowRejected, e.Deferred)
	if !(res.MapFrac > 0 && res.MapFrac < 1) {
		t.Errorf("map fraction = %v", res.MapFrac)
	}
	if e.GrowRequests != e.Served {
		t.Errorf("grow requests = %d, want one per commission (%d served, no faults)", e.GrowRequests, e.Served)
	}
	if e.Grows == 0 || e.Shrinks != e.Grows {
		t.Errorf("grows=%d shrinks=%d, want equal and non-zero (no faults here)", e.Grows, e.Shrinks)
	}
	if got := e.Grows + e.GrowRejected + e.Deferred; got != e.GrowRequests {
		t.Errorf("resize conservation: %d+%d+%d = %d, want %d",
			e.Grows, e.GrowRejected, e.Deferred, got, e.GrowRequests)
	}
	if got := e.Served + e.Rejected + e.Unplaced; got != cfg.Requests {
		t.Errorf("request conservation: %d, want %d", got, cfg.Requests)
	}
	s := res.Static
	if got := s.Served + s.Rejected + s.Unplaced; got != cfg.Requests {
		t.Errorf("static request conservation: %d, want %d", got, cfg.Requests)
	}
	out := res.Render()
	for _, want := range []string{"Elastic scenario", "static", "elastic", "resize ledger", "cloudsim.resize_grows"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

// Same seed, same config — byte-identical report and exports. Run under
// -race by the elastic-race gate.
func TestElasticDeterministic(t *testing.T) {
	var metrics, traces [2]bytes.Buffer
	var renders [2]string
	for i := 0; i < 2; i++ {
		cfg := DefaultElasticConfig()
		cfg.Trace = &traces[i]
		res, err := Elastic(7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders[i] = res.Render()
		if err := res.Reg.WriteMetricsJSON(&metrics[i]); err != nil {
			t.Fatal(err)
		}
	}
	if renders[0] != renders[1] {
		t.Error("reports differ between identical runs")
	}
	if !bytes.Equal(metrics[0].Bytes(), metrics[1].Bytes()) {
		t.Error("metric snapshots differ between identical runs")
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Error("traces differ between identical runs")
	}
}

func TestElasticRejectsBadConfig(t *testing.T) {
	cfg := DefaultElasticConfig()
	cfg.Requests = 0
	if _, err := Elastic(1, cfg); err == nil {
		t.Error("zero requests accepted")
	}
	cfg = DefaultElasticConfig()
	cfg.Job.InputFile = ""
	if _, err := Elastic(1, cfg); err == nil {
		t.Error("invalid job spec accepted")
	}
	cfg = DefaultElasticConfig()
	cfg.Job.MapSelectivity = 0 // shuffle-free job: PhaseSplit degenerates to 1
	if _, err := Elastic(1, cfg); err == nil {
		t.Error("degenerate map fraction accepted")
	}
}
