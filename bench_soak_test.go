// Soak benchmarks: streaming trace replay throughput and peak live heap
// at soak scale. Unlike the other benchmarks, each op is itself a long
// averaged run (open-loop requests through the full cloudsim plant with
// faults on and obs streaming to io.Discard), so the intended invocation
// is -benchtime=1x: the interesting figures are the custom req/s and
// peak-heap-bytes metrics, not ns/op. BenchmarkSoak feeds
// BENCH_soak.json (make bench-soak); the 1M arm is the paper-scale
// endurance run. The elastic arm replays the same plant with map/shuffle
// resizing, the benchmark's soak-elastic policy, whose deferred grows
// make it the slowest replay.
package bench

import (
	"fmt"
	"testing"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/experiments"
	"affinitycluster/internal/mapreduce"
)

func BenchmarkSoak(b *testing.B) {
	arms := []struct {
		name     string
		requests int
		elastic  bool
	}{
		{"100k", 100_000, false},
		{"1M", 1_000_000, false},
		{"elastic-20k", 20_000, true},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			cfg := experiments.DefaultSoakConfig()
			cfg.Requests = arm.requests
			if arm.elastic {
				cfg.Elastic = cloudsim.ElasticConfig{
					Enabled:      true,
					GrowFactor:   0.5,
					MapFrac:      mapreduce.WordCount("input").PhaseSplit(),
					MinPayoff:    1,
					DeferBackoff: 5,
				}
			}
			var peak uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Soak(2012, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Cloud.Served == 0 {
					b.Fatal("soak served nothing")
				}
				if res.PeakHeapBytes > peak {
					peak = res.PeakHeapBytes
				}
			}
			b.StopTimer()
			total := float64(arm.requests) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(peak), "peak-heap-bytes")
			b.Logf("%s: peak heap %.1f MiB", fmt.Sprintf("%d requests", arm.requests),
				float64(peak)/(1<<20))
		})
	}
}
