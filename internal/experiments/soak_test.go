package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// soakAt runs a sized-down soak and returns its result.
func soakAt(t *testing.T, seed int64, requests int) *SoakResult {
	t.Helper()
	cfg := DefaultSoakConfig()
	cfg.Requests = requests
	// Sample the heap often enough that short runs catch their plateau.
	cfg.MemEvery = 512
	res, err := Soak(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSoakConservesAndRenders(t *testing.T) {
	res := soakAt(t, 2012, 5000)
	c := res.Cloud
	if got := c.Served + c.Rejected + c.Unplaced; got != res.Requests {
		t.Errorf("conservation broken: served %d + rejected %d + unplaced %d = %d, want %d",
			c.Served, c.Rejected, c.Unplaced, got, res.Requests)
	}
	if c.Served == 0 {
		t.Fatal("nothing served")
	}
	if got, want := c.WaitSketch.Count(), int64(c.Served); got != want {
		t.Errorf("wait sketch holds %d samples, want %d (served)", got, want)
	}
	if res.PeakHeapBytes == 0 {
		t.Error("heap peak not sampled")
	}
	out := res.Render()
	for _, want := range []string{"Soak scenario.", "distance:", "wait:", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestSoakDeterministic: the rendered report is a pure function of seed
// and config (the machine-dependent heap peak stays out of it).
func TestSoakDeterministic(t *testing.T) {
	a := soakAt(t, 7, 4000)
	b := soakAt(t, 7, 4000)
	if a.Render() != b.Render() {
		t.Errorf("same-seed soak reports differ:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	if c := soakAt(t, 8, 4000); c.Render() == a.Render() {
		t.Error("different seeds produced identical reports")
	}
}

// TestSoakStreamsTrace: the soak is instrumented through a streaming
// registry — events reach the sink as JSONL without being retained, and
// the streamed bytes are a same-seed-deterministic function of the run.
func TestSoakStreamsTrace(t *testing.T) {
	runAt := func(seed int64) (*SoakResult, string) {
		cfg := DefaultSoakConfig()
		cfg.Requests = 2000
		var buf strings.Builder
		cfg.Trace = &buf
		res, err := Soak(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	res, trace := runAt(11)
	if res.Events == 0 {
		t.Fatal("instrumented soak streamed no events")
	}
	if got := strings.Count(trace, "\n"); got != res.Events {
		t.Errorf("sink holds %d JSONL lines, registry counted %d events", got, res.Events)
	}
	if res.Reg.Events() != nil {
		t.Error("soak registry retained events; must stream")
	}
	if _, again := runAt(11); again != trace {
		t.Error("same-seed soak traces differ")
	}
}

// TestSoakFaultsInjected: the derived fault horizon spans the run, so a
// default-config soak actually sees failures.
func TestSoakFaultsInjected(t *testing.T) {
	res := soakAt(t, 2012, 8000)
	if res.Cloud.Failures == 0 {
		t.Error("default soak injected no failures; horizon derivation broken?")
	}
}

func TestSoakRejectsBadConfig(t *testing.T) {
	cfg := DefaultSoakConfig()
	cfg.Requests = 0
	if _, err := Soak(1, cfg); err == nil {
		t.Error("zero request count accepted")
	}
	cfg = DefaultSoakConfig()
	cfg.Requests = 10
	cfg.Workload.BaseRate = -1
	if _, err := Soak(1, cfg); err == nil {
		t.Error("invalid workload accepted")
	}
}

// TestSoakMemoryBounded is the O(active)-memory claim as a test: the
// peak live heap of a replay must not scale with the trace length. An
// 8× longer trace is allowed at most ~2× the shorter run's peak — far
// below the 8× an O(requests) structure would show. Each sample follows
// a collection, so the peaks measure live memory, not where GC pacing
// happened to leave garbage.
func TestSoakMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-scaling soak skipped in -short")
	}
	runtime.GC()
	small := soakAt(t, 2012, 10_000)
	runtime.GC()
	large := soakAt(t, 2012, 80_000)
	if small.PeakHeapBytes == 0 || large.PeakHeapBytes == 0 {
		t.Fatal("heap peaks not sampled")
	}
	ratio := float64(large.PeakHeapBytes) / float64(small.PeakHeapBytes)
	t.Logf("peak heap: %d requests → %.1f MiB, %d requests → %.1f MiB (ratio %.2f)",
		small.Requests, float64(small.PeakHeapBytes)/(1<<20),
		large.Requests, float64(large.PeakHeapBytes)/(1<<20), ratio)
	if ratio > 2 {
		t.Errorf("peak heap grew %.2f× for an 8× longer trace; replay is not O(active)", ratio)
	}
}
