// Elastic is the static-vs-elastic comparison scenario: the same plant
// and the same timed workload run twice through the cloud simulator,
// once holding every cluster at its requested size (the paper's
// setting) and once with mid-job resizing — grow for the map phase,
// shrink into the shuffle — where the phase boundary comes from a
// representative MapReduce job spec (mapreduce.JobSpec.PhaseSplit). The
// report contrasts served DC(C), makespan, utilization, and the resize
// ledger, so the figure shows what the extra map-phase VMs cost in
// affinity and what the boundary shrink gives back.

package experiments

import (
	"fmt"
	"io"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// ElasticExperimentConfig sizes the comparison scenario.
type ElasticExperimentConfig struct {
	// Requests is the number of timed cluster requests.
	Requests int
	// Arrival shapes the arrival/holding process.
	Arrival workload.ArrivalConfig
	// Job is the representative MapReduce job whose per-MB cost profile
	// places the map/shuffle boundary (MapFrac = Job.PhaseSplit()).
	Job mapreduce.JobSpec
	// GrowFactor sizes the map-phase grow; see cloudsim.ElasticConfig,
	// whose MinPayoff and DeferBackoff defaults the run takes.
	GrowFactor float64
}

// DefaultElasticConfig pairs the ops-style workload with a map-heavy
// wordcount profile (PhaseSplit ≈ 0.87, so clusters run grown for most
// of their hold) and a 50% map-phase boost.
func DefaultElasticConfig() ElasticExperimentConfig {
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = 5
	return ElasticExperimentConfig{
		Requests:   60,
		Arrival:    arr,
		Job:        mapreduce.WordCount("input"),
		GrowFactor: 0.5,
	}
}

// ElasticResult bundles the comparison's outputs. Reg is the elastic
// run's registry (the one the -metrics/-trace exports stream); the
// static run is summarized by its metrics alone.
type ElasticResult struct {
	Reg     *obs.Registry
	Static  *cloudsim.Metrics
	Elastic *cloudsim.Metrics
	MapFrac float64
}

// Elastic runs the comparison. Both runs share the capacity seed (seed),
// request seed (seed+1), and timing seed (seed+2), so the elastic
// resize policy is the only force separating the two metric sets.
func Elastic(seed int64, cfg ElasticExperimentConfig) (*ElasticResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiments: Elastic needs a positive request count, got %d", cfg.Requests)
	}
	if err := cfg.Job.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: Elastic job spec: %w", err)
	}
	mapFrac := cfg.Job.PhaseSplit()
	if !(mapFrac > 0 && mapFrac < 1) {
		return nil, fmt.Errorf("experiments: job %q yields degenerate map fraction %v", cfg.Job.Name, mapFrac)
	}

	const types = 3
	tp := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, err
	}
	reqs, err := workload.RandomRequests(seed+1, cfg.Requests, types, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		return nil, err
	}
	timed, err := workload.TimedRequests(seed+2, reqs, cfg.Arrival)
	if err != nil {
		return nil, err
	}

	run := func(reg *obs.Registry, elastic cloudsim.ElasticConfig) (*cloudsim.Metrics, error) {
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			return nil, err
		}
		cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
			Policy:  queue.FIFO,
			Elastic: elastic,
			Obs:     reg,
		})
		if err != nil {
			return nil, err
		}
		return cs.RunStream(model.NewSliceSource(timed))
	}

	static, err := run(obs.NewRegistry(), cloudsim.ElasticConfig{})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	elastic, err := run(reg, cloudsim.ElasticConfig{
		Enabled:    true,
		GrowFactor: cfg.GrowFactor,
		MapFrac:    mapFrac,
	})
	if err != nil {
		return nil, err
	}
	return &ElasticResult{Reg: reg, Static: static, Elastic: elastic, MapFrac: mapFrac}, nil
}

// Render prints the static-vs-elastic comparison followed by the elastic
// run's metric summary. Output is a deterministic function of the seed.
func (r *ElasticResult) Render() string {
	s, e := r.Static, r.Elastic
	avg := func(m *cloudsim.Metrics) float64 {
		if m.Served == 0 {
			return 0
		}
		return m.TotalDistance / float64(m.Served)
	}
	head := fmt.Sprintf("Elastic scenario: map/shuffle resize at map fraction %.3f.\n\n", r.MapFrac)
	head += fmt.Sprintf("%-22s %14s %14s\n", "", "static", "elastic")
	row := func(name, format string, sv, ev any) string {
		return fmt.Sprintf("%-22s %14s %14s\n", name, fmt.Sprintf(format, sv), fmt.Sprintf(format, ev))
	}
	head += row("served", "%d", s.Served, e.Served)
	head += row("rejected", "%d", s.Rejected, e.Rejected)
	head += row("mean DC(C)", "%.3f", avg(s), avg(e))
	head += row("total DC(C)", "%.1f", s.TotalDistance, e.TotalDistance)
	head += row("makespan", "%.1f", s.MakeSpan, e.MakeSpan)
	head += row("utilization", "%.4f", s.UtilizationAvg, e.UtilizationAvg)
	head += fmt.Sprintf(
		"\nresize ledger: %d grow requests -> %d served (+%d VMs), %d shrinks, %d rejected by deadline, %d deferred for good\n\n",
		e.GrowRequests, e.Grows, e.GrowVMs, e.Shrinks, e.GrowRejected, e.Deferred)
	return head + r.Reg.RenderSummary()
}

// WriteMetrics writes the elastic run's JSON metric snapshot.
func (r *ElasticResult) WriteMetrics(w io.Writer) error { return r.Reg.WriteMetricsJSON(w) }

// WriteTrace writes the elastic run's JSONL event trace.
func (r *ElasticResult) WriteTrace(w io.Writer) error { return r.Reg.WriteTraceJSONL(w) }
