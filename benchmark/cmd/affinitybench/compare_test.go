package main

import (
	"io"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	tight := []float64{99, 100, 101}
	// 49 plants spread ±20% around their median: wide one by one, but
	// their median is certain to within the bound.
	plants := func(mid float64) []float64 {
		xs := make([]float64, 49)
		for i := range xs {
			xs[i] = mid * (0.8 + 0.4*float64(i)/48)
		}
		return xs
	}
	for _, c := range []struct {
		name      string
		m         specMetric
		base, cur Value
		exact     bool
		want      string
	}{
		{"lower within bound", lower, Value{V: 100, Samples: tight}, Value{V: 105, Samples: tight}, false, same},
		{"lower regression", lower, Value{V: 100, Samples: tight}, Value{V: 115, Samples: []float64{114, 115, 116}}, false, worse},
		{"lower gain", lower, Value{V: 100, Samples: tight}, Value{V: 80, Samples: []float64{79, 80, 81}}, false, better},
		{"higher regression", higher, Value{V: 100, Samples: tight}, Value{V: 85, Samples: []float64{84, 85, 86}}, false, worse},
		{"higher gain", higher, Value{V: 100, Samples: tight}, Value{V: 120, Samples: []float64{119, 120, 121}}, false, better},
		{"no samples", higher, Value{V: 100}, Value{V: 95}, false, same},
		{"wide spread", lower, Value{V: 100, Samples: []float64{60, 100, 140}}, Value{V: 130, Samples: []float64{90, 130, 170}}, false, unresolved},
		{"wide spread but disjoint", lower, Value{V: 100, Samples: []float64{50, 100, 150}}, Value{V: 300, Samples: []float64{200, 300, 400}}, false, worse},
		{"wide spread, every new run better", higher, Value{V: 100, Samples: []float64{50, 100, 150}}, Value{V: 300, Samples: []float64{200, 300, 400}}, false, better},
		{"many wide plants, median within bound", higher, Value{V: 100, Samples: plants(100)}, Value{V: 95, Samples: plants(95)}, false, same},
		{"many wide plants, median regression", higher, Value{V: 100, Samples: plants(100)}, Value{V: 85, Samples: plants(85)}, false, worse},
		{"exact, equal", lower, Value{V: 0.3}, Value{V: 0.3}, true, same},
		{"exact, slightly worse", lower, Value{V: 0.3}, Value{V: 0.3001}, true, worse},
		{"exact, slightly better", lower, Value{V: 0.3}, Value{V: 0.2999}, true, better},
	} {
		if _, got := verdict(c.m, c.base, c.cur, c.exact); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	s := spec{EndToEnd: []specMetric{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.2},
		{Name: "dc_mean", Unit: "DC", Better: "lower", Bound: 0.15},
	}}
	type figs struct {
		workload    string
		seed        int64
		ops, setup  float64
		dc, failed  float64
		wait        float64
		hasWaitTime bool
	}
	report := func(f figs) Report {
		m := map[string]Value{
			"ops_per_s":   {V: f.ops, Samples: []float64{f.ops, f.ops, f.ops}},
			"setup_s":     {V: f.setup},
			"dc_mean":     {V: f.dc},
			"failed_frac": {V: f.failed},
		}
		if f.hasWaitTime {
			m["wait_mean_s"] = Value{V: f.wait}
		}
		return Report{Results: []*Result{{Workload: f.workload, Seed: f.seed, Plants: 40, Attempted: 1000, Metrics: m}}}
	}
	soak := func(seed int64, ops, setup, dc, failed, wait float64) Report {
		return report(figs{"soak", seed, ops, setup, dc, failed, wait, true})
	}
	svc := func(failed float64) Report {
		return report(figs{"svc-16k", 1, 1000, 1, 0.1, failed, 0, false})
	}
	for _, c := range []struct {
		name      string
		base, cur Report
		wantOK    bool
		marker    string
	}{
		{"same", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 980, 1.1, 0.3, 0.01, 5), true, "same"},
		{"throughput regression", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 800, 1, 0.3, 0.01, 5), false, "worse"},
		{"set-up regression", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 1000, 1.5, 0.3, 0.01, 5), false, "worse"},
		{"gain", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 1300, 0.5, 0.3, 0.01, 5), true, "better"},
		{"same seed: dc_mean is exact", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 1000, 1, 0.301, 0.01, 5), false, "exact"},
		{"other seed: dc_mean within its bound", soak(1, 1000, 1, 0.3, 0.01, 5), soak(2, 1000, 1, 0.32, 0.01, 5), true, "same"},
		{"same seed: more rejected requests", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 1000, 1, 0.3, 0.0101, 5), false, "failed_frac"},
		{"same seed: longer simulated waits", soak(1, 1000, 1, 0.3, 0.01, 5), soak(1, 1000, 1, 0.3, 0.01, 5.5), false, "wait_mean_s"},
		{"other seed: waits are not judged", soak(1, 1000, 1, 0.3, 0.01, 5), soak(2, 1000, 1, 0.3, 0.01, 5.5), true, "same"},
		{"service: refused grows within tolerance", svc(0.010), svc(0.0105), true, "failed_frac"},
		{"service: refused grows beyond tolerance", svc(0.010), svc(0.012), false, "failed_frac"},
	} {
		var out strings.Builder
		ok, err := compareReports(s, c.base, c.cur, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.wantOK || !strings.Contains(out.String(), c.marker) {
			t.Errorf("%s: ok=%v (want %v), output:\n%s", c.name, ok, c.wantOK, out.String())
		}
	}
	if _, err := compareReports(s, soak(1, 1000, 1, 0.3, 0.01, 5), Report{}, io.Discard); err == nil {
		t.Error("a workload missing from the new report was accepted")
	}
}
