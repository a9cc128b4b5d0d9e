// Serving is the placement-service scenario: the ops workload (a
// saturated 3×10 plant) run with every placement commit and release
// routed through the concurrent placement front-end of internal/service
// instead of direct inventory mutation. The simulator drives the service
// synchronously from its event loop, so the scenario stays strictly
// serial and the obs event order (and hence the -trace output) remains a
// deterministic function of the seed — the service's lock-pass figures
// (every op applies in a pass of its own here) live in its Stats,
// outside the registry.

package experiments

import (
	"fmt"
	"io"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/service"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// ServingConfig sizes the placement-service scenario.
type ServingConfig struct {
	// Requests is the number of timed cluster requests.
	Requests int
	// QueueCap bounds the simulator's wait queue (0 = unbounded).
	QueueCap int
	// Arrival shapes the arrival/holding process.
	Arrival workload.ArrivalConfig
}

// DefaultServingConfig mirrors the ops cloud half — same plant, same
// request process — so served and direct runs are directly comparable.
func DefaultServingConfig() ServingConfig {
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = 5
	return ServingConfig{
		Requests: 40,
		QueueCap: 0,
		Arrival:  arr,
	}
}

// ServingResult bundles the scenario's outputs: the registry, the cloud
// metrics, and the service's activity counters.
type ServingResult struct {
	Reg   *obs.Registry
	Cloud *cloudsim.Metrics
	Stats service.Stats
}

// Serving runs the placement-service scenario on a fresh registry. The
// workload and plant are generated exactly like Ops (same seed
// derivation), so any divergence from a direct run would be a service
// bug, not workload noise.
func Serving(seed int64, cfg ServingConfig) (*ServingResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiments: Serving needs a positive request count, got %d", cfg.Requests)
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
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:   queue.FIFO,
		QueueCap: cfg.QueueCap,
		Serve:    true,
		Obs:      reg,
	})
	if err != nil {
		return nil, err
	}
	cloudMetrics, err := cs.Run(timed)
	if err != nil {
		return nil, err
	}
	stats, ok := cs.ServiceStats()
	if !ok {
		return nil, fmt.Errorf("experiments: Serving ran without a placement service")
	}
	return &ServingResult{Reg: reg, Cloud: cloudMetrics, Stats: stats}, nil
}

// Render prints the operator-facing report: serving headline, then the
// registry's metric summary.
func (r *ServingResult) Render() string {
	c := r.Cloud
	head := fmt.Sprintf(
		"Serving scenario. service: %d ops in %d batches (max batch %d), %d placed, %d released; cloud: served %d, rejected %d, unplaced %d, mean DC %.2f\n\n",
		r.Stats.Ops, r.Stats.Batches, r.Stats.MaxBatch, r.Stats.Placed, r.Stats.Released,
		c.Served, c.Rejected, c.Unplaced, meanDistance(c))
	return head + r.Reg.RenderSummary()
}

// meanDistance is the mean DC over served clusters (0 when none served).
func meanDistance(c *cloudsim.Metrics) float64 {
	if c.Served == 0 {
		return 0
	}
	return c.TotalDistance / float64(c.Served)
}

// WriteMetrics writes the registry's JSON metric snapshot.
func (r *ServingResult) WriteMetrics(w io.Writer) error { return r.Reg.WriteMetricsJSON(w) }

// WriteTrace writes the registry's JSONL event trace.
func (r *ServingResult) WriteTrace(w io.Writer) error { return r.Reg.WriteTraceJSONL(w) }
