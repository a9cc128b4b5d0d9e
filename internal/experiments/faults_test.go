package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// The default fault scenario must exercise both recovery paths: at
// least one cluster rebuilt in place, and at least one torn down and
// re-served through the requeue/backoff machinery.
func TestFaultsDefaultExercisesBothRecoveryPaths(t *testing.T) {
	res, err := Faults(2012, DefaultFaultsConfig(2012))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cloud
	t.Logf("failures=%d lost=%d evac=%d requeued=%d repl=%d exhausted=%d served=%d rejected=%d unplaced=%d",
		c.Failures, c.LostVMs, c.Evacuations, c.Requeued, c.Replacements, c.RetriesExhausted,
		c.Served, c.Rejected, c.Unplaced)
	if c.Failures == 0 {
		t.Error("no failures injected")
	}
	if c.Evacuations == 0 {
		t.Error("no cluster recovered by evacuation")
	}
	if c.Replacements == 0 {
		t.Error("no cluster recovered by requeue")
	}
	if c.Requeued < c.Replacements {
		t.Errorf("Requeued = %d < Replacements = %d", c.Requeued, c.Replacements)
	}
	if got := len(res.Plan); got == 0 {
		t.Error("empty fault plan")
	}
	out := res.Render()
	for _, want := range []string{"Faults scenario.", "cloudsim.faults", "cloudsim.recovery_seconds"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
}

// Conservation: every request is served, rejected, or still queued.
func TestFaultsConservation(t *testing.T) {
	cfg := DefaultFaultsConfig(2012)
	res, err := Faults(2012, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cloud
	if got := c.Served + c.Rejected + c.Unplaced; got != cfg.Requests {
		t.Errorf("Served %d + Rejected %d + Unplaced %d = %d, want %d",
			c.Served, c.Rejected, c.Unplaced, got, cfg.Requests)
	}
}

// Same seed, same config — byte-identical exports.
func TestFaultsDeterministic(t *testing.T) {
	var metrics, traces [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		cfg := DefaultFaultsConfig(7)
		cfg.Trace = &traces[i]
		res, err := Faults(7, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Reg.WriteMetricsJSON(&metrics[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(metrics[0].Bytes(), metrics[1].Bytes()) {
		t.Error("metric snapshots differ between identical runs")
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Error("traces differ between identical runs")
	}
}

func TestFaultsRejectsBadConfig(t *testing.T) {
	cfg := DefaultFaultsConfig(1)
	cfg.Requests = 0
	if _, err := Faults(1, cfg); err == nil {
		t.Error("zero requests accepted")
	}
	cfg = DefaultFaultsConfig(1)
	cfg.Faults.MTBF = 0
	if _, err := Faults(1, cfg); err == nil {
		t.Error("disabled fault config accepted")
	}
}
