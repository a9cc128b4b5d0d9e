// Soak is the day-in-the-life endurance scenario: a large plant serving
// an open-loop arrival stream (diurnally modulated Poisson arrivals,
// heavy-tailed sizes and lifetimes) under a sparse crash/repair
// schedule, replayed through the cloud simulator's streaming run. It
// never materializes the request slice, and its obs registry retains no
// events (they are written to a JSONL sink as they happen, when one is
// given), so its footprint is O(active clusters) no matter how many
// requests are replayed: one million requests fit in the same heap as
// ten thousand.
// Latency and distance distributions come from the simulator's
// constant-memory quantile sketches.

package experiments

import (
	"fmt"
	"io"
	"runtime"

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

// SoakConfig sizes the soak scenario.
type SoakConfig struct {
	// Requests is the number of open-loop requests to replay.
	Requests int
	// Clouds × Racks × NodesPerRack shape the plant
	// (defaults 2 × 8 × 16 = 256 nodes).
	Clouds, Racks, NodesPerRack int
	// Workload shapes the open-loop arrival process.
	Workload workload.OpenLoopConfig
	// Faults parameterizes the crash/repair schedule; the zero value
	// disables injection. A zero Horizon is derived from the expected
	// run span (Requests / BaseRate) so the schedule covers the run.
	Faults faults.Config
	// Recovery tunes the requeue-with-backoff policy.
	Recovery cloudsim.RecoveryConfig
	// Sketch bounds the streaming wait/distance quantile sketches.
	Sketch cloudsim.SketchConfig
	// Elastic resizes every served cluster across its map/shuffle
	// boundary; the zero value replays the static soak.
	Elastic cloudsim.ElasticConfig
	// MemEvery samples the live Go heap every N pulled requests to
	// report the replay's peak footprint (0 = 4096; negative disables
	// sampling).
	MemEvery int
	// Trace receives the run's event trace as JSONL, streamed event by
	// event. Nil keeps no trace; events are still counted.
	Trace io.Writer
}

// DefaultSoakConfig is a 256-node plant at roughly 70% long-run
// utilization under the default open-loop workload, with a node failure
// every couple of simulated hours (every sixth a whole-rack outage).
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		Requests:     100_000,
		Clouds:       2,
		Racks:        8,
		NodesPerRack: 16,
		Workload:     workload.DefaultOpenLoopConfig(),
		Faults: faults.Config{
			MTBF:      7200,
			MTTR:      900,
			RackEvery: 6,
		},
		Recovery: cloudsim.RecoveryConfig{MaxAttempts: 3, Backoff: 60, Factor: 2},
		// Waits can span a whole outage; widen the sketch accordingly.
		Sketch: cloudsim.SketchConfig{WaitMax: 14400, Buckets: 720},
	}
}

// SoakResult bundles the scenario's outputs.
type SoakResult struct {
	// Cloud is the simulator's aggregate metrics; its DistanceSketch and
	// WaitSketch carry the latency/distance distributions.
	Cloud *cloudsim.Metrics
	// Reg is the run's obs registry: its metrics are live for
	// snapshotting, while its event trace went to SoakConfig.Trace and
	// is not retained.
	Reg *obs.Registry
	// Events is the number of events the run emitted.
	Events int
	// Requests and Nodes echo the scenario size.
	Requests, Nodes int
	// PeakHeapBytes is the largest sampled live Go heap during the
	// replay (0 when sampling is disabled) — the number that demonstrates
	// the O(active) memory claim at any trace length.
	PeakHeapBytes uint64
}

// Soak runs the scenario. The capacity seed is seed, the workload seed
// seed+1, and the fault seed seed+2, mirroring the other scenarios'
// seed-derivation convention.
func Soak(seed int64, cfg SoakConfig) (*SoakResult, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("experiments: Soak needs a positive request count, got %d", cfg.Requests)
	}
	if cfg.Clouds == 0 {
		cfg.Clouds = 2
	}
	if cfg.Racks == 0 {
		cfg.Racks = 8
	}
	if cfg.NodesPerRack == 0 {
		cfg.NodesPerRack = 16
	}
	tp, err := topology.Uniform(cfg.Clouds, cfg.Racks, cfg.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewOpenLoop(seed+1, cfg.Requests, cfg.Workload)
	if err != nil {
		return nil, err
	}
	types := cfg.Workload.Types
	if types <= 0 {
		types = 3
	}
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Enabled() && cfg.Faults.Horizon == 0 {
		// NewOpenLoop accepted the config, so BaseRate > 0.
		cfg.Faults.Horizon = float64(cfg.Requests) / cfg.Workload.BaseRate
	}
	reg := obs.NewStreamingRegistry(cfg.Trace)
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:    queue.FIFO,
		Faults:    cfg.Faults,
		FaultSeed: seed + 2,
		Recovery:  cfg.Recovery,
		Sketch:    cfg.Sketch,
		Elastic:   cfg.Elastic,
		Obs:       reg,
	})
	if err != nil {
		return nil, err
	}
	src := &heapPeakSource{src: gen, every: cfg.MemEvery}
	if src.every == 0 {
		src.every = 4096
	}
	m, err := cs.RunStream(src)
	if err != nil {
		return nil, err
	}
	if err := reg.SinkErr(); err != nil {
		return nil, fmt.Errorf("experiments: soak trace sink: %w", err)
	}
	return &SoakResult{
		Cloud:         m,
		Reg:           reg,
		Events:        reg.EventCount(),
		Requests:      cfg.Requests,
		Nodes:         tp.Nodes(),
		PeakHeapBytes: src.peak,
	}, nil
}

// heapPeakSource decorates a request source, sampling the live Go heap
// every `every` pulls. Each sample runs a collection first: a replay
// that allocates almost nothing may never reach a GC cycle on its own,
// so a bare HeapAlloc would read wherever the pacing left earlier
// garbage. The collection costs about 1 ms on a 2-core Xeon, ~4% of a
// 100k-request replay at the default stride; that stride still catches
// the replay's plateau.
type heapPeakSource struct {
	src   model.RequestSource
	every int
	n     int
	peak  uint64
}

func (h *heapPeakSource) Next() (model.TimedRequest, bool, error) {
	if h.every > 0 && h.n%h.every == 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak {
			h.peak = ms.HeapAlloc
		}
	}
	h.n++
	return h.src.Next()
}

// Render prints the operator-facing report. It is a deterministic
// function of the seed and config: the (machine-dependent) heap peak is
// deliberately left to the caller, so same-seed soak output stays
// byte-identical.
func (r *SoakResult) Render() string {
	c := r.Cloud
	head := fmt.Sprintf(
		"Soak scenario. replayed %d open-loop requests over %.0f simulated seconds on %d nodes\n",
		r.Requests, c.MakeSpan, r.Nodes)
	body := fmt.Sprintf(
		"cloud: served %d, rejected %d, unplaced %d; failures %d (%d VMs lost, %d evacuations, %d requeued); utilization %.1f%%\n",
		c.Served, c.Rejected, c.Unplaced,
		c.Failures, c.LostVMs, c.Evacuations, c.Requeued,
		c.UtilizationAvg*100)
	dist := fmt.Sprintf(
		"distance: mean %.2f, p50 %.2f, p90 %.2f, p99 %.2f (±%.2f)\n",
		c.DistanceSketch.Mean(),
		c.DistanceSketch.Value(50), c.DistanceSketch.Value(90), c.DistanceSketch.Value(99),
		c.DistanceSketch.ErrorBound())
	wait := fmt.Sprintf(
		"wait:     mean %.1fs, p50 %.1fs, p90 %.1fs, p99 %.1fs (±%.1fs)\n",
		c.WaitSketch.Mean(),
		c.WaitSketch.Value(50), c.WaitSketch.Value(90), c.WaitSketch.Value(99),
		c.WaitSketch.ErrorBound())
	return head + body + dist + wait
}
