// Faults is the fault-injection scenario: the ops cloud half (queue +
// batch placement + migration) run under a seeded crash/repair schedule,
// so every recovery path — in-place evacuation, retry-with-backoff
// re-placement, and the parked-victim drain after a repair — sees real
// work. Like Ops it executes strictly serially: only a single-threaded
// simulation keeps the obs event order (and hence the -trace output) a
// deterministic function of the seed.

package experiments

import (
	"fmt"
	"io"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// FaultsConfig sizes the fault scenario.
type FaultsConfig struct {
	// Requests is the number of timed cluster requests.
	Requests int
	// Arrival shapes the arrival/holding process.
	Arrival workload.ArrivalConfig
	// Faults parameterizes the crash/repair schedule (must be enabled).
	Faults faults.Config
	// Recovery tunes the requeue-with-backoff policy.
	Recovery cloudsim.RecoveryConfig
}

// DefaultFaultsConfig pairs the ops workload (a saturated 3×10 plant)
// with a fault process dense enough to exercise both recovery paths:
// single-node crashes usually leave enough residual capacity for
// in-place evacuation, while every second failure is a whole-rack
// outage that forces teardown and requeue until the repair restores the
// rack.
func DefaultFaultsConfig(seed int64) FaultsConfig {
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = 5
	return FaultsConfig{
		Requests: 40,
		Arrival:  arr,
		Faults: faults.Config{
			MTBF:      40,
			MTTR:      60,
			Horizon:   250,
			RackEvery: 2,
		},
		Recovery: cloudsim.RecoveryConfig{
			MaxAttempts: 3,
			Backoff:     10,
			Factor:      2,
		},
	}
}

// FaultsResult bundles the scenario's outputs: the registry holding
// every metric and event, the cloud metrics, and the injected schedule.
type FaultsResult struct {
	Reg   *obs.Registry
	Cloud *cloudsim.Metrics
	Plan  []faults.Event
}

// Faults runs the fault scenario on a fresh registry. The workload and
// plant are generated exactly like Ops (same seed derivation), so the
// only new force acting on the cloud is the fault schedule, which is
// seeded independently with seed+3.
func Faults(seed int64, cfg FaultsConfig) (*FaultsResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiments: Faults needs a positive request count, got %d", cfg.Requests)
	}
	if !cfg.Faults.Enabled() {
		return nil, fmt.Errorf("experiments: Faults needs an enabled fault config (MTBF > 0)")
	}
	reg := obs.NewRegistry()

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
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	faultSeed := seed + 3
	plan, err := faults.Plan(faultSeed, tp, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:    queue.FIFO,
		Batch:     true,
		Migrate:   true,
		Faults:    cfg.Faults,
		FaultSeed: faultSeed,
		Recovery:  cfg.Recovery,
		Obs:       reg,
	})
	if err != nil {
		return nil, err
	}
	cloudMetrics, err := cs.RunStream(model.NewSliceSource(timed))
	if err != nil {
		return nil, err
	}
	return &FaultsResult{Reg: reg, Cloud: cloudMetrics, Plan: plan}, nil
}

// Render prints the operator-facing report: the injected schedule's
// headline, the recovery outcome, then the registry's metric summary.
func (r *FaultsResult) Render() string {
	c := r.Cloud
	head := fmt.Sprintf(
		"Faults scenario. injected %d failures (%d VMs lost); recovered %d by evacuation, %d by requeue (%d torn down, %d retry budgets exhausted); cloud: served %d, rejected %d, unplaced %d, migrations %d\n\n",
		c.Failures, c.LostVMs, c.Evacuations, c.Replacements, c.Requeued, c.RetriesExhausted,
		c.Served, c.Rejected, c.Unplaced, c.Migrations)
	return head + r.Reg.RenderSummary()
}

// WriteMetrics writes the registry's JSON metric snapshot.
func (r *FaultsResult) WriteMetrics(w io.Writer) error { return r.Reg.WriteMetricsJSON(w) }

// WriteTrace writes the registry's JSONL event trace.
func (r *FaultsResult) WriteTrace(w io.Writer) error { return r.Reg.WriteTraceJSONL(w) }
