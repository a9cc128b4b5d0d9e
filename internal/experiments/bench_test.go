package experiments

import (
	"testing"

	"affinitycluster/internal/mapreduce"
)

// BenchmarkAblationDelaySched compares the MapReduce scheduler with and
// without delay scheduling on the skewed-input experiment, where locality
// is contended.
func BenchmarkAblationDelaySched(b *testing.B) {
	tops, err := MRTopologies()
	if err != nil {
		b.Fatal(err)
	}
	mt := tops[1] // the cluster whose locality suffers most under skew
	for _, tc := range []struct {
		name  string
		skips int
	}{
		{"eager", 0},
		{"delay-3", 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultMRExperimentConfig(2012)
			cfg.SingleWriterInput = true
			cfg.Sim.DelaySkips = tc.skips
			var nonLocal float64
			for i := 0; i < b.N; i++ {
				row, err := runMRClusterJob(mt.Name, mt.Alloc, cfg, mapreduce.WordCount("input"))
				if err != nil {
					b.Fatal(err)
				}
				nonLocal = float64(row.NonDataLocalMaps)
			}
			b.ReportMetric(nonLocal, "non-local-maps")
		})
	}
}

// BenchmarkMapReduceWordCount measures one full simulated WordCount run.
func BenchmarkMapReduceWordCount(b *testing.B) {
	tops, err := MRTopologies()
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultMRExperimentConfig(2012)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runMRClusterJob(tops[0].Name, tops[0].Alloc, cfg, mapreduce.WordCount("input")); err != nil {
			b.Fatal(err)
		}
	}
}
