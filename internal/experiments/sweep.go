package experiments

import (
	"fmt"

	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/stats"
)

// SweepRow is one point of the shuffle-selectivity sweep: how much a
// compact cluster beats a spread one as the job's shuffle volume grows.
type SweepRow struct {
	Selectivity   float64
	CompactSec    float64
	SpreadSec     float64
	SpeedupPct    float64 // (spread − compact) / compact × 100
	RemoteShuffle float64 // MB the spread cluster moved cross-rack
}

// SweepResult is the full sweep.
type SweepResult struct {
	Rows []SweepRow
}

// SelectivitySweep quantifies the paper's motivation quantitatively: the
// benefit of affinity-aware placement grows with the job's shuffle
// volume. It runs a parameterized job (WordCount shape with varying map
// selectivity, 4 reducers) on the most compact and the most spread of the
// four experiment clusters.
func SelectivitySweep(seed int64, selectivities []float64) (*SweepResult, error) {
	if len(selectivities) == 0 {
		selectivities = []float64{0.01, 0.25, 0.5, 1.0, 1.5}
	}
	tops, err := MRTopologies()
	if err != nil {
		return nil, err
	}
	compact := tops[0]
	spread := tops[len(tops)-1]
	cfg := DefaultMRExperimentConfig(seed)
	for _, sel := range selectivities {
		if sel < 0 {
			return nil, fmt.Errorf("experiments: negative selectivity %v", sel)
		}
	}
	// Sweep points are independent (each builds its own plant and
	// simulator), so they run on the shared worker pool, one row slot per
	// point.
	out := &SweepResult{Rows: make([]SweepRow, len(selectivities))}
	err = forEachIndex(len(selectivities), func(i int) error {
		sel := selectivities[i]
		job := mapreduce.WordCount("input")
		job.Name = fmt.Sprintf("sweep-%.2f", sel)
		job.MapSelectivity = sel
		job.NumReduces = 4
		c, err := runMRClusterJob(compact.Name, compact.Alloc, cfg, job)
		if err != nil {
			return err
		}
		sp, err := runMRClusterJob(spread.Name, spread.Alloc, cfg, job)
		if err != nil {
			return err
		}
		row := SweepRow{
			Selectivity:   sel,
			CompactSec:    c.RuntimeSec,
			SpreadSec:     sp.RuntimeSec,
			RemoteShuffle: sp.ShuffleRemoteMB,
		}
		if c.RuntimeSec > 0 {
			row.SpeedupPct = (sp.RuntimeSec - c.RuntimeSec) / c.RuntimeSec * 100
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Render prints the sweep as a table.
func (r *SweepResult) Render() string {
	t := &stats.Table{Header: []string{"selectivity", "compact (s)", "spread (s)", "speedup %", "remote shuffle MB"}}
	for _, row := range r.Rows {
		t.Add(row.Selectivity, row.CompactSec, row.SpreadSec, row.SpeedupPct, row.RemoteShuffle)
	}
	return "Supplementary: affinity benefit vs shuffle selectivity\n" + t.String()
}
