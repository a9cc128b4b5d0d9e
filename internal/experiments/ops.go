// Ops is the instrumented operational scenario: the full stack — queue,
// placement, migration, and one MapReduce job — run against a single
// obs.Registry so operators can inspect every layer's metrics and the
// decision trace of one simulated day in one snapshot.
//
// Unlike the figure runners, Ops executes strictly serially: the obs
// trace records events in emission order, and only a single-threaded
// simulation makes that order (and hence the -trace output) a
// deterministic function of the seed.

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
	"affinitycluster/internal/vcluster"
	"affinitycluster/internal/workload"
)

// OpsConfig sizes the operational scenario.
type OpsConfig struct {
	// Requests is the number of timed cluster requests fed through the
	// cloud (default 20, the paper's request count).
	Requests int
	// Arrival shapes the arrival/holding process.
	Arrival workload.ArrivalConfig
	// MR configures the MapReduce job run on the first experiment
	// cluster after the cloud simulation completes.
	MR MRExperimentConfig
	// Trace receives the run's event trace as JSONL, streamed event by
	// event. Nil keeps no trace; events are still counted.
	Trace io.Writer
}

// DefaultOpsConfig sizes the scenario so every family sees real work:
// twice the paper's request count arriving six times as fast, which
// saturates the 3×10 plant — requests queue, batch placement drains
// them, and departures leave holes the migration planner tightens.
func DefaultOpsConfig(seed int64) OpsConfig {
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = 5
	return OpsConfig{
		Requests: 40,
		Arrival:  arr,
		MR:       DefaultMRExperimentConfig(seed),
	}
}

// OpsResult bundles the scenario's outputs: the registry holding every
// metric, plus the headline numbers of both halves.
type OpsResult struct {
	Reg   *obs.Registry
	Cloud *cloudsim.Metrics
	MR    *mapreduce.Counters
}

// Ops runs the operational scenario on a fresh registry: the cloud
// simulation (batch placement + migration, so the placement, queue, and
// migration families all populate) followed by one instrumented
// WordCount (the mapreduce family). Same seed, same snapshot — byte for
// byte.
func Ops(seed int64, cfg OpsConfig) (*OpsResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiments: Ops needs a positive request count, got %d", cfg.Requests)
	}
	reg := obs.NewStreamingRegistry(cfg.Trace)

	// --- Cloud half: queue + placement + migration. ---
	tp, caps, timed, err := opsPlant(seed, cfg.Requests, cfg.Arrival)
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:  queue.FIFO,
		Batch:   true,
		Migrate: true,
		Obs:     reg,
	})
	if err != nil {
		return nil, err
	}
	cloudMetrics, err := cs.RunStream(model.NewSliceSource(timed))
	if err != nil {
		return nil, err
	}

	// --- MapReduce half: one WordCount on the densest experiment
	// cluster, instrumented into the same registry. ---
	mrCounters, err := opsMapReduce(reg, cfg.MR)
	if err != nil {
		return nil, err
	}
	if err := reg.SinkErr(); err != nil {
		return nil, fmt.Errorf("experiments: ops trace sink: %w", err)
	}
	return &OpsResult{Reg: reg, Cloud: cloudMetrics, MR: mrCounters}, nil
}

// opsPlant draws the plant and workload Ops, Faults and Elastic share:
// the paper's 3×10 topology with at most 2 VMs of each of 3 types per
// node (drawn from seed), and n Normal-scenario requests (seed+1) timed
// by arr (seed+2). The capacities are tighter than the paper's 4
// per type, so the requests outstrip the plant: arrivals genuinely
// queue, and batch drains, migration and resizes all have work to do.
func opsPlant(seed int64, n int, arr workload.ArrivalConfig) (*topology.Topology, [][]int, []model.TimedRequest, error) {
	const types = 3
	tp := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := workload.RandomRequests(seed+1, n, types, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	timed, err := workload.TimedRequests(seed+2, reqs, arr)
	if err != nil {
		return nil, nil, nil, err
	}
	return tp, caps, timed, nil
}

// opsMapReduce mirrors runMRClusterJob but threads the registry through
// mapreduce.Simulator.Instrument. It runs on the caller's goroutine —
// never on the worker pool — to keep the event order deterministic.
func opsMapReduce(reg *obs.Registry, cfg MRExperimentConfig) (*mapreduce.Counters, error) {
	tops, err := MRTopologies()
	if err != nil {
		return nil, err
	}
	tp, err := mrPlant()
	if err != nil {
		return nil, err
	}
	cluster, err := vcluster.FromAllocation(tp, tops[0].Alloc)
	if err != nil {
		return nil, err
	}
	sim, err := newMRSim(tp, cluster, cfg)
	if err != nil {
		return nil, err
	}
	sim.Instrument(reg)
	return sim.Run(mapreduce.WordCount("input"))
}

// Render prints the operator-facing report: headline numbers, then the
// registry's metric summary.
func (r *OpsResult) Render() string {
	head := fmt.Sprintf(
		"Ops scenario. cloud: served %d, rejected %d, migrations %d (%.0f MB); mapreduce: runtime %.1fs, %d/%d non-data-local maps\n\n",
		r.Cloud.Served, r.Cloud.Rejected, r.Cloud.Migrations, r.Cloud.MigrationMB,
		r.MR.Runtime, r.MR.NonDataLocalMaps(), r.MR.MapsTotal)
	return head + r.Reg.RenderSummary()
}
