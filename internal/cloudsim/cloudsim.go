// Package cloudsim simulates a cloud serving a stream of virtual-cluster
// requests over time — the paper's operational setting where "requests
// will arrive and their job will finish randomly" (Section V.A). Arrivals
// try to provision immediately through a pluggable placement strategy;
// requests that do not fit wait in the queue of package queue and are
// re-examined whenever a departing cluster releases resources.
//
// Two service modes are supported: per-request (each admitted request is
// placed alone, the paper's online setting) and batch (all admissible
// queued requests are placed together with the global sub-optimization
// algorithm whenever resources free up).
package cloudsim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/service"
	"affinitycluster/internal/stats"
	"affinitycluster/internal/topology"
)

// arrivalClass orders lazily scheduled arrivals below every other event
// at the same timestamp: the "arrivals first on ties" determinism
// contract, kept although each arrival enters the heap only once its
// predecessor has fired.
const arrivalClass = -1

// Config selects queueing and service behaviour.
type Config struct {
	// Policy orders the wait queue.
	Policy queue.Policy
	// QueueCap bounds the wait queue (0 = unbounded); arrivals beyond it
	// are rejected.
	QueueCap int
	// Strict uses head-blocking admission (strict fairness) instead of
	// the paper's take-what-fits getRequests.
	Strict bool
	// Batch places drained queue batches with the global sub-optimization
	// algorithm instead of one-by-one online placement.
	Batch bool
	// Migrate runs the affinity-aware migration planner over the running
	// clusters after every departure, tightening them into freed
	// capacity.
	Migrate bool
	// Migration tunes the planner when Migrate is set.
	Migration migration.Config
	// BatchWindow > 0 delays admission: arrivals queue, and a drain fires
	// BatchWindow seconds after the first queued request, trading wait
	// time for larger batches — the paper notes global optimization
	// becomes possible when users reserve ("tell the cloud provider how
	// long the resources will be occupied") instead of demanding
	// immediate service. Usually combined with Batch.
	BatchWindow float64
	// Faults, when enabled, injects the deterministic crash/repair
	// schedule of package faults into the run: failed nodes lose their
	// capacity and the VMs they host, and affected clusters are
	// recovered by evacuation or requeue (see internal/cloudsim/faults.go).
	// The zero value disables injection and leaves every code path of
	// the fault-free simulation untouched.
	Faults faults.Config
	// FaultSeed seeds the fault schedule, independent of workload seeds.
	FaultSeed int64
	// Recovery tunes the requeue-with-backoff policy for clusters that
	// cannot be evacuated after a failure.
	Recovery RecoveryConfig
	// Serve, when non-nil, routes every placement commit and release
	// through a concurrent placement service (internal/service) instead
	// of mutating the inventory directly: the service's apply loop
	// becomes the inventory's single writer. Only per-request mode is
	// supported (no Batch, Migrate, BatchWindow, or Faults), the placer
	// must be the indexed online heuristic, and the simulator keeps its
	// own wait queue — Topology, Inventory, Online, QueueCap, Ordered,
	// GlobalOpt, and Obs in the supplied config are overridden, so only
	// the batching knobs (BatchSize, MaxWait, IntakeCap) matter here. A
	// served run is byte-identical to a direct one: metrics, registry
	// snapshot, and event trace all match (pinned by TestServeParity).
	Serve *service.Config
	// Elastic, when enabled, resizes every served cluster across its
	// map/shuffle boundary: grow for the map phase, shrink into the
	// shuffle, with deadline-aware admission (see
	// internal/cloudsim/elastic.go). Requires the indexed online
	// heuristic in direct per-request mode; composes with Faults. The
	// zero value leaves the static simulation untouched.
	Elastic ElasticConfig
	// RetainSamples keeps the exact per-request Distances and Waits
	// slices on Metrics — O(served requests) memory, required for exact
	// percentiles and the paper figures' byte-identical sample order. The
	// default (false) populates only the constant-memory streaming
	// sketches, which is what multi-million-request soak replays need.
	RetainSamples bool
	// Sketch bounds the streaming quantile sketches (zero fields take
	// defaults; see SketchConfig).
	Sketch SketchConfig
	// Obs, when non-nil, receives per-decision telemetry: placement
	// events with chosen center and DC, queue admit/reject/wait,
	// migration moves with gain and traffic, plus counters, gauges, and
	// wait/DC histograms. All timestamps are eventsim virtual time, so
	// instrumented runs stay deterministic. Nil costs nothing.
	Obs *obs.Registry
}

// SketchConfig bounds the streaming distance/wait quantile sketches.
// Samples beyond a max are clamped to the top bucket (counted, with the
// quantile pinned at the bound); the bounds only need to cover the range
// where quantile resolution matters.
type SketchConfig struct {
	// DistanceMax is the upper bound of the DC sketch (0 = 200, matching
	// the obs placement histogram's range).
	DistanceMax float64
	// WaitMax is the upper bound of the wait sketch, seconds (0 = 3600).
	WaitMax float64
	// Buckets is the bucket count of both sketches (0 = 400); the
	// worst-case quantile error is one bucket width.
	Buckets int
}

func (c SketchConfig) withDefaults() SketchConfig {
	if c.DistanceMax <= 0 {
		c.DistanceMax = 200
	}
	if c.WaitMax <= 0 {
		c.WaitMax = 3600
	}
	if c.Buckets <= 0 {
		c.Buckets = 400
	}
	return c
}

// RecoveryConfig tunes how a cluster torn down by a failure is re-placed
// when in-place evacuation is impossible: direct placement is retried
// with exponential backoff, and once attempts are exhausted the victim is
// parked at the head of the wait queue (keeping its original arrival
// time) so a later drain — typically after the repair — can still serve
// it.
type RecoveryConfig struct {
	// MaxAttempts caps direct re-placement attempts (0 = 4).
	MaxAttempts int
	// Backoff is the delay before the first retry, simulation seconds
	// (0 = 30).
	Backoff float64
	// Factor multiplies the delay after each failed attempt (0 = 2).
	Factor float64
}

func (c RecoveryConfig) withDefaults() RecoveryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.Backoff <= 0 {
		c.Backoff = 30
	}
	if c.Factor <= 0 {
		c.Factor = 2
	}
	return c
}

// Metrics aggregates one simulation run.
type Metrics struct {
	Served   int
	Rejected int // exceeded total plant capacity or queue full
	Unplaced int // admitted but never placed before the run ended
	// Distances and Waits are the exact per-request samples in service
	// order — populated only with Config.RetainSamples (they are
	// O(served) memory).
	Distances []float64 // DC of each served cluster, in service order
	Waits     []float64 // queueing delay of each served request
	// DistanceSketch and WaitSketch summarize the same samples in O(1)
	// memory (fixed-bucket streaming quantiles, always populated); their
	// Value(p) is within ErrorBound of the exact percentile for in-range
	// samples.
	DistanceSketch *stats.Quantile
	WaitSketch     *stats.Quantile
	// UtilizationAvg is the time-weighted mean fraction of plant VM slots
	// occupied between the first arrival and the last departure.
	UtilizationAvg float64
	// TotalDistance sums Distances.
	TotalDistance float64
	// MakeSpan is the virtual time of the last departure.
	MakeSpan float64
	// Migrations counts applied migration moves; MigrationMB is the
	// traffic they generated; MigrationGain is the summed DC reduction.
	Migrations    int
	MigrationMB   float64
	MigrationGain float64
	// FinalDistanceSum is Σ DC over clusters at their departure — with
	// migration enabled it reflects post-migration placements.
	FinalDistanceSum float64
	// Failures counts injected crash/outage events; LostVMs the VMs they
	// destroyed. Evacuations counts degraded clusters rebuilt in place,
	// Requeued clusters torn down for whole-cluster re-placement,
	// Replacements the requeued clusters eventually re-served, and
	// RetriesExhausted victims whose direct re-placement attempts all
	// failed (they fall back to the wait queue). All zero when fault
	// injection is disabled.
	Failures         int
	LostVMs          int
	Evacuations      int
	Requeued         int
	Replacements     int
	RetriesExhausted int
	// Elastic resize accounting, all zero unless Config.Elastic is
	// enabled. Every grow op terminates in exactly one of Grows,
	// GrowRejected, or Deferred, so GrowRequests == Grows + GrowRejected
	// + Deferred at the end of every run (checked, like the request
	// identity Served + Rejected + Unplaced == requests) — mid-job
	// deltas never double-count.
	GrowRequests int // grow ops opened at commission
	Grows        int // grow ops served (VMs added near the center)
	GrowVMs      int // VMs added across all served grows
	Shrinks      int // boundary shrinks executed
	GrowRejected int // grows refused by deadline/oversize admission
	Deferred     int // grows deferred and never served (expired or cluster gone)
}

// Simulator runs one scenario.
type Simulator struct {
	topo   *topology.Topology
	inv    *inventory.Inventory
	placer placement.Placer
	cfg    Config

	engine *eventsim.Engine
	queue  *queue.Queue
	global *placement.GlobalSubOpt
	mig    *migration.Planner

	// Sparse fast path: when the placer is the online heuristic with the
	// pruned-scan policy, a persistent tier index is attached to the
	// inventory at construction and each placement goes through
	// PlaceSparse + AllocateList instead of clone-plan-commit. The results
	// are bitwise identical; only the per-request O(n·m) copies disappear.
	online *placement.OnlineHeuristic
	tidx   *affinity.TierIndex
	sp     affinity.SparseAlloc
	spd    affinity.SparseAlloc // grow-delta scratch, distinct from sp

	// Sparse DC scratch (see distance): per-node totals, zero between
	// calls, and the hosting nodes of the cluster being priced.
	dcs     affinity.DistanceScratch
	dcW     []int
	dcHosts []topology.NodeID

	// Elastic resize state: resolved config and the per-cluster resize
	// lifecycle records (nil map when elastic mode is off).
	ecfg    ElasticConfig
	elastic map[int]*elasticState

	// serve, when Config.Serve is set, owns the inventory: place and
	// depart go through it and never touch inv's mutators directly.
	serve *service.Service

	arrivals map[model.RequestID]float64
	running  map[int]*cluster           // live clusters by registry ID
	reqOf    map[int]model.TimedRequest // registry ID → original request
	departEv map[int]*eventsim.Event    // registry ID → scheduled departure
	slot     map[int]int                // registry ID → index into Distances/Waits (RetainSamples only)
	samples  map[int]servedSample       // registry ID → rollback record, O(active)
	nextRun  int
	metrics  Metrics

	// Fault state: the precomputed schedule and, per torn-down request,
	// the failure time — consumed when the victim is re-served so
	// time-to-recovery can be observed.
	faultPlan       []faults.Event
	pendingRecovery map[model.RequestID]float64

	drainPending bool // a BatchWindow drain is already scheduled

	// failed aborts the event loop: a release failure means the simulator
	// corrupted its own bookkeeping, so Run stops and surfaces the error
	// instead of panicking mid-callback.
	failed error

	totalSlots int
	usedSlots  int
	lastSample float64
	utilArea   float64

	om simMetrics
}

// simMetrics are the resolved obs handles of one simulator; the zero
// value (uninstrumented) no-ops everywhere.
type simMetrics struct {
	served           *obs.Counter
	rejected         *obs.Counter
	releaseFailures  *obs.Counter
	migrationMoves   *obs.Counter
	migrationAborts  *obs.Counter
	faults           *obs.Counter
	evacuations      *obs.Counter
	replacements     *obs.Counter
	retriesExhausted *obs.Counter
	grows            *obs.Counter
	shrinks          *obs.Counter
	growRejected     *obs.Counter
	growDeferred     *obs.Counter
	running          *obs.Gauge
	usedSlots        *obs.Gauge
	waitSeconds      *obs.Histogram
	placementDC      *obs.Histogram
	recoverySeconds  *obs.Histogram
}

// New builds a simulator over a topology, a live inventory, and a
// placement strategy.
//
//lint:owner singlewriter
func New(tp *topology.Topology, inv *inventory.Inventory, placer placement.Placer, cfg Config) (*Simulator, error) {
	if tp.Nodes() != inv.Nodes() {
		return nil, fmt.Errorf("cloudsim: topology has %d nodes, inventory %d", tp.Nodes(), inv.Nodes())
	}
	if placer == nil {
		return nil, errors.New("cloudsim: nil placer")
	}
	s := &Simulator{
		topo:            tp,
		inv:             inv,
		placer:          placer,
		cfg:             cfg,
		engine:          eventsim.New(),
		queue:           queue.New(cfg.Policy, cfg.QueueCap),
		global:          &placement.GlobalSubOpt{Obs: cfg.Obs},
		mig:             &migration.Planner{Config: cfg.Migration, Obs: cfg.Obs},
		arrivals:        make(map[model.RequestID]float64),
		running:         make(map[int]*cluster),
		reqOf:           make(map[int]model.TimedRequest),
		departEv:        make(map[int]*eventsim.Event),
		slot:            make(map[int]int),
		samples:         make(map[int]servedSample),
		pendingRecovery: make(map[model.RequestID]float64),
		dcW:             make([]int, tp.Nodes()),
	}
	sk := cfg.Sketch.withDefaults()
	s.metrics.DistanceSketch = stats.NewQuantile(0, sk.DistanceMax, sk.Buckets)
	s.metrics.WaitSketch = stats.NewQuantile(0, sk.WaitMax, sk.Buckets)
	if cfg.Faults.Enabled() {
		plan, err := faults.Plan(cfg.FaultSeed, tp, cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("cloudsim: fault schedule: %w", err)
		}
		s.faultPlan = plan
	}
	s.queue.Instrument(cfg.Obs)
	if cfg.Obs != nil {
		s.om = simMetrics{
			served:          cfg.Obs.Counter("cloudsim.served"),
			rejected:        cfg.Obs.Counter("cloudsim.rejected"),
			releaseFailures: cfg.Obs.Counter("cloudsim.release_failures"),
			migrationMoves:  cfg.Obs.Counter("cloudsim.migration_moves"),
			migrationAborts: cfg.Obs.Counter("cloudsim.migration_aborted"),
			running:         cfg.Obs.Gauge("cloudsim.running_clusters"),
			usedSlots:       cfg.Obs.Gauge("cloudsim.used_slots"),
			waitSeconds:     cfg.Obs.Histogram("cloudsim.wait_seconds", 0, 200, 20),
			placementDC:     cfg.Obs.Histogram("cloudsim.placement_dc", 0, 200, 20),
		}
		if cfg.Faults.Enabled() {
			// Fault metrics are registered only for fault scenarios so
			// fault-free runs keep their exact metric snapshots (the
			// handles are nil-safe either way).
			s.om.faults = cfg.Obs.Counter("cloudsim.faults")
			s.om.evacuations = cfg.Obs.Counter("cloudsim.fault_evacuations")
			s.om.replacements = cfg.Obs.Counter("cloudsim.fault_replacements")
			s.om.retriesExhausted = cfg.Obs.Counter("cloudsim.fault_retries_exhausted")
			s.om.recoverySeconds = cfg.Obs.Histogram("cloudsim.recovery_seconds", 0, 1000, 20)
		}
		if cfg.Elastic.Enabled {
			// Same deal for elastic runs: static scenarios keep their
			// exact metric snapshots.
			s.om.grows = cfg.Obs.Counter("cloudsim.resize_grows")
			s.om.shrinks = cfg.Obs.Counter("cloudsim.resize_shrinks")
			s.om.growRejected = cfg.Obs.Counter("cloudsim.resize_rejected")
			s.om.growDeferred = cfg.Obs.Counter("cloudsim.resize_deferred")
		}
	}
	caps := inv.CapacityMatrix()
	for i := range caps {
		s.totalSlots += model.Sum(caps[i])
	}
	if s.totalSlots == 0 {
		return nil, errors.New("cloudsim: inventory has zero capacity")
	}
	if cfg.Serve != nil {
		if cfg.Batch || cfg.Migrate || cfg.BatchWindow > 0 || cfg.Faults.Enabled() || cfg.Elastic.Enabled {
			return nil, errors.New("cloudsim: Serve supports per-request mode only (no Batch, Migrate, BatchWindow, Faults, or Elastic)")
		}
		oh, ok := placer.(*placement.OnlineHeuristic)
		if !ok || oh.Policy != placement.ScanAllCenters {
			return nil, fmt.Errorf("cloudsim: Serve requires the indexed online heuristic, got %q", placer.Name())
		}
		sc := *cfg.Serve
		sc.Topology, sc.Inventory, sc.Online = tp, inv, oh
		// The simulator's own queue does the waiting (its drain is driven
		// by virtual time); the service answers non-fitting placements
		// immediately. Telemetry stays with the simulator so a served run's
		// registry matches a direct run's byte for byte.
		sc.QueueCap = -1
		sc.Ordered, sc.GlobalOpt = false, false
		sc.Obs = nil
		svc, err := service.New(sc)
		if err != nil {
			return nil, fmt.Errorf("cloudsim: starting placement service: %w", err)
		}
		s.serve = svc
		return s, nil
	}
	if oh, ok := placer.(*placement.OnlineHeuristic); ok && oh.Policy == placement.ScanAllCenters {
		idx, err := inv.AttachTierIndex(tp)
		if err != nil {
			return nil, fmt.Errorf("cloudsim: attaching tier index: %w", err)
		}
		s.online, s.tidx = oh, idx
	}
	if cfg.Elastic.Enabled {
		if cfg.Batch || cfg.Migrate || cfg.BatchWindow > 0 {
			return nil, errors.New("cloudsim: Elastic supports direct per-request mode only (no Batch, Migrate, or BatchWindow)")
		}
		if err := cfg.Elastic.validate(); err != nil {
			return nil, err
		}
		if s.tidx == nil {
			return nil, fmt.Errorf("cloudsim: Elastic requires the indexed online heuristic, got %q", placer.Name())
		}
		s.ecfg = cfg.Elastic.withDefaults()
		s.elastic = make(map[int]*elasticState)
	}
	return s, nil
}

// ServiceStats returns the placement service's activity counters and
// whether Serve mode is active. The counters are valid during and after
// Run (they are atomics owned by the service).
func (s *Simulator) ServiceStats() (service.Stats, bool) {
	if s.serve == nil {
		return service.Stats{}, false
	}
	return s.serve.Stats(), true
}

// Run feeds the timed requests through the simulated cloud and returns
// the aggregate metrics once all work has drained. The slice may be in
// any order and its IDs need not increase: invalid and duplicate entries
// are rejected at t=0, and the rest are stable-sorted by arrival and
// replayed through the same lazy loop as RunStream. A bookkeeping
// failure (a departure whose release does not fit the inventory) aborts
// the run and is returned as an error instead of panicking.
//
//lint:owner singlewriter
func (s *Simulator) Run(reqs []model.TimedRequest) (*Metrics, error) {
	seen := make(map[model.RequestID]bool, len(reqs))
	valid := make([]model.TimedRequest, 0, len(reqs))
	for _, r := range reqs {
		if !validRequest(r) || seen[r.ID] {
			// Malformed or duplicate input is accounted for, not silently
			// dropped, so conservation still holds over the input slice.
			s.reject(r, 0, "invalid")
			continue
		}
		seen[r.ID] = true
		valid = append(valid, r)
	}
	slices.SortStableFunc(valid, func(a, b model.TimedRequest) int { return cmp.Compare(a.Arrival, b.Arrival) })
	return s.replay(model.NewSliceSource(valid))
}

// servedSample is the per-active-cluster record needed to roll a served
// cluster back out of the metrics when a fault tears it down. Unlike the
// retained slices it is deleted at departure, so fault recovery stays
// O(active) at any trace length.
type servedSample struct{ d, wait float64 }

// RunStream replays requests pulled lazily from src — a trace.Reader, a
// workload.OpenLoop, or any model.RequestSource — holding exactly one
// pending arrival in the event heap instead of all of them, so a
// multi-million-request replay runs in O(active clusters) memory. The
// source must honor the RequestSource contract (strictly increasing IDs,
// non-decreasing arrivals); violating requests are counted as rejected,
// the same accounting Run applies to malformed slice entries. On a valid
// sorted input, RunStream and Run produce identical metrics (pinned by
// TestRunStreamMatchesRun).
//
//lint:owner singlewriter
func (s *Simulator) RunStream(src model.RequestSource) (*Metrics, error) {
	return s.replay(&contractSource{src: src, sim: s, lastID: -1})
}

// contractSource passes through the requests of src that honor the
// RequestSource contract, checked in O(1) against the last accepted ID
// and arrival instead of a seen-ID map. Violating and invalid requests
// are rejected at the current virtual time and skipped.
type contractSource struct {
	src    model.RequestSource
	sim    *Simulator
	lastID model.RequestID
	lastAt float64
}

func (c *contractSource) Next() (model.TimedRequest, bool, error) {
	for {
		r, ok, err := c.src.Next()
		if err != nil || !ok {
			return r, ok, err
		}
		if !validRequest(r) || r.ID <= c.lastID || r.Arrival < c.lastAt {
			c.sim.reject(r, c.sim.engine.Now(), "invalid")
			continue
		}
		c.lastID, c.lastAt = r.ID, r.Arrival
		return r, true, nil
	}
}

// replay is the event loop shared by Run and RunStream: faults are
// scheduled up front, arrivals one at a time, each pulled from src as
// its predecessor fires.
func (s *Simulator) replay(src model.RequestSource) (m *Metrics, err error) {
	if s.serve != nil {
		// The simulator owns the service's lifetime: stop its goroutines
		// on every exit path. A Close failure on an otherwise clean run
		// is surfaced; ErrClosed just means a prior run already stopped it.
		defer func() {
			if cerr := s.serve.Close(); cerr != nil && !errors.Is(cerr, service.ErrClosed) && err == nil {
				m, err = nil, fmt.Errorf("cloudsim: closing placement service: %w", cerr)
			}
		}()
	}
	if err := s.scheduleFaults(); err != nil {
		return nil, err
	}
	if err := s.scheduleNextArrival(src); err != nil {
		return nil, err
	}
	return s.finish()
}

// scheduleNextArrival pulls one request from src and schedules its
// arrival; the arrival callback processes the request and then pulls
// the next one.
func (s *Simulator) scheduleNextArrival(src model.RequestSource) error {
	r, ok, err := src.Next()
	if err != nil {
		return fmt.Errorf("cloudsim: pulling next arrival: %w", err)
	}
	if !ok {
		return nil
	}
	_, err = s.engine.AtClass(r.Arrival, arrivalClass, func(now float64) {
		s.arrive(r, now)
		if err := s.scheduleNextArrival(src); err != nil {
			s.fail(err)
		}
	})
	if err != nil {
		return fmt.Errorf("cloudsim: scheduling arrival of request %d: %w", r.ID, err)
	}
	return nil
}

// scheduleFaults enqueues the precomputed fault plan. Faults run at
// class 0, so they lose timestamp ties against arrivals.
func (s *Simulator) scheduleFaults() error {
	for _, ev := range s.faultPlan {
		ev := ev
		var err error
		if ev.Kind == faults.Repair {
			_, err = s.engine.At(ev.Time, func(now float64) { s.repair(ev, now) })
		} else {
			_, err = s.engine.At(ev.Time, func(now float64) { s.crash(ev, now) })
		}
		if err != nil {
			return fmt.Errorf("cloudsim: scheduling fault %d: %w", ev.FailureID, err)
		}
	}
	return nil
}

// finish drives the event loop to completion and closes out the metrics.
func (s *Simulator) finish() (*Metrics, error) {
	for s.failed == nil && s.engine.Step() {
	}
	if s.failed != nil {
		return nil, s.failed
	}
	s.sampleUtilization(s.engine.Now())
	s.metrics.MakeSpan = s.engine.Now()
	if s.metrics.MakeSpan > 0 {
		s.metrics.UtilizationAvg = s.utilArea / (s.metrics.MakeSpan * float64(s.totalSlots))
	}
	s.metrics.Unplaced = s.queue.Len()
	// Every admitted request must end up served, rejected, or still
	// queued; a leftover arrival entry would mean one was silently lost.
	if len(s.arrivals) != s.metrics.Unplaced {
		return nil, fmt.Errorf("cloudsim: accounting leak: %d pending arrival entries, %d unplaced requests",
			len(s.arrivals), s.metrics.Unplaced)
	}
	// The matching identity for mid-job deltas: every grow op must have
	// terminated, and in exactly one way.
	if s.elastic != nil {
		if len(s.elastic) != 0 {
			return nil, fmt.Errorf("cloudsim: accounting leak: %d clusters hold unresolved resize state", len(s.elastic))
		}
		m := &s.metrics
		if m.Grows+m.GrowRejected+m.Deferred != m.GrowRequests {
			return nil, fmt.Errorf("cloudsim: resize accounting leak: %d grown + %d rejected + %d deferred != %d requested",
				m.Grows, m.GrowRejected, m.Deferred, m.GrowRequests)
		}
	}
	return &s.metrics, nil
}

// validRequest filters inputs the engine or the accounting cannot
// represent: non-finite or negative times and negative demand entries.
func validRequest(r model.TimedRequest) bool {
	for _, t := range []float64{r.Arrival, r.Hold} {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return false
		}
	}
	for _, v := range r.Vector {
		if v < 0 {
			return false
		}
	}
	return true
}

// sampleUtilization integrates slot usage up to now.
func (s *Simulator) sampleUtilization(now float64) {
	dt := now - s.lastSample
	if dt > 0 {
		s.utilArea += float64(s.usedSlots) * dt
		s.lastSample = now
	}
}

func (s *Simulator) arrive(r model.TimedRequest, now float64) {
	s.arrivals[r.ID] = now
	if !s.inv.CanEverSatisfy(r.Vector) {
		s.reject(r, now, "oversized")
		return
	}
	if s.cfg.BatchWindow > 0 {
		// Reservation-style admission: accumulate a batch, drain later.
		if err := s.queue.Enqueue(r); err != nil {
			s.reject(r, now, "queue_full")
			return
		}
		s.cfg.Obs.Emit("queue_admit", now, obs.F("req", int(r.ID)))
		if !s.drainPending {
			s.drainPending = true
			_, err := s.engine.After(s.cfg.BatchWindow, func(at float64) {
				s.drainPending = false
				s.drain(at)
			})
			if err != nil {
				s.fail(fmt.Errorf("cloudsim: scheduling batch-window drain: %w", err))
			}
		}
		return
	}
	if s.inv.CanSatisfy(r.Vector) && s.queue.Len() == 0 {
		if s.place(r, now) {
			return
		}
	}
	if err := s.queue.Enqueue(r); err != nil {
		s.reject(r, now, "queue_full")
		return
	}
	s.cfg.Obs.Emit("queue_admit", now, obs.F("req", int(r.ID)))
}

// fail aborts the run at the next event-loop step, keeping the first
// error.
func (s *Simulator) fail(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// reject records one turned-away arrival.
func (s *Simulator) reject(r model.TimedRequest, now float64, reason string) {
	delete(s.arrivals, r.ID)
	s.metrics.Rejected++
	s.om.rejected.Inc()
	s.cfg.Obs.Emit("queue_reject", now, obs.F("req", int(r.ID)), obs.F("reason", reason))
}

// place provisions a single request right now; returns false if the
// placer could not fit it (so it should queue instead). Only the
// ErrInsufficient sentinels mean "does not fit" — any other placer or
// inventory error is a bug and aborts the run instead of being
// misread as a full cloud.
func (s *Simulator) place(r model.TimedRequest, now float64) bool {
	if s.serve != nil {
		pl, err := s.serve.Place(r.Vector)
		if err != nil {
			if !errors.Is(err, placement.ErrInsufficient) {
				s.fail(fmt.Errorf("cloudsim: service placement of request %d: %w", r.ID, err))
			}
			return false
		}
		s.commission(r, pl.Entries, pl.DC, pl.Center, now)
		return true
	}
	if s.tidx != nil && len(r.Vector) == s.tidx.Types() {
		d, center, err := s.online.PlaceSparse(s.tidx, r.Vector, &s.sp)
		if err != nil {
			if !errors.Is(err, placement.ErrInsufficient) {
				s.fail(fmt.Errorf("cloudsim: placer %s on request %d: %w", s.placer.Name(), r.ID, err))
			}
			return false
		}
		if err := s.inv.AllocateList(s.sp.Entries); err != nil {
			if !errors.Is(err, inventory.ErrInsufficient) {
				s.fail(fmt.Errorf("cloudsim: allocating request %d: %w", r.ID, err))
			}
			return false
		}
		s.commission(r, s.sp.Entries, d, center, now)
		return true
	}
	alloc, err := s.placer.Place(s.topo, s.inv.Remaining(), r.Vector)
	if err != nil {
		if !errors.Is(err, placement.ErrInsufficient) {
			s.fail(fmt.Errorf("cloudsim: placer %s on request %d: %w", s.placer.Name(), r.ID, err))
		}
		return false
	}
	if err := s.inv.Allocate([][]int(alloc)); err != nil {
		if !errors.Is(err, inventory.ErrInsufficient) {
			s.fail(fmt.Errorf("cloudsim: allocating request %d: %w", r.ID, err))
		}
		return false
	}
	d, center := alloc.Distance(s.topo)
	s.commission(r, alloc.Sparse(), d, center, now)
	return true
}

// commission records a served cluster, copied from its placement
// entries, and schedules its departure. The caller supplies the
// cluster's data center distance and central node — the sparse path gets
// them from the placement itself instead of recomputing them.
func (s *Simulator) commission(r model.TimedRequest, entries []affinity.VMEntry, d float64, center topology.NodeID, now float64) {
	c := newCluster(entries)
	s.sampleUtilization(now)
	s.usedSlots += c.vms
	wait := now - s.arrivals[r.ID]
	delete(s.arrivals, r.ID)
	s.metrics.Served++
	id := s.nextRun
	s.nextRun++
	s.running[id] = c
	s.reqOf[id] = r
	s.samples[id] = servedSample{d: d, wait: wait}
	s.metrics.DistanceSketch.Observe(d)
	s.metrics.WaitSketch.Observe(wait)
	if s.cfg.RetainSamples {
		s.slot[id] = len(s.metrics.Distances)
		s.metrics.Distances = append(s.metrics.Distances, d)
		s.metrics.Waits = append(s.metrics.Waits, wait)
	}
	s.metrics.TotalDistance += d
	s.om.served.Inc()
	s.om.waitSeconds.Observe(wait)
	s.om.placementDC.Observe(d)
	s.om.running.Set(float64(len(s.running)))
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.cfg.Obs.Emit("place", now,
		obs.F("req", int(r.ID)),
		obs.F("center", int(center)),
		obs.F("dc", d),
		obs.F("vms", c.vms),
		obs.F("wait", wait))
	if failAt, ok := s.pendingRecovery[r.ID]; ok {
		// A cluster torn down by a failure is back in service.
		delete(s.pendingRecovery, r.ID)
		s.metrics.Replacements++
		s.om.replacements.Inc()
		s.om.recoverySeconds.Observe(now - failAt)
		s.cfg.Obs.Emit("recover", now,
			obs.F("req", int(r.ID)),
			obs.F("method", "requeue"),
			obs.F("delay", now-failAt))
	}
	ev, err := s.engine.After(r.Hold, func(at float64) { s.depart(id, at) })
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling departure of cluster %d: %w", id, err))
		return
	}
	s.departEv[id] = ev
	if s.elastic != nil {
		// The map phase starts now: open the cluster's resize lifecycle.
		s.requestGrow(id, r, now)
	}
}

func (s *Simulator) depart(id int, now float64) {
	s.cancelElastic(id, now, "departed")
	c := s.running[id]
	delete(s.running, id)
	delete(s.departEv, id)
	delete(s.slot, id)
	delete(s.samples, id)
	s.sampleUtilization(now)
	s.usedSlots -= c.vms
	d, _ := s.distance(c)
	s.metrics.FinalDistanceSum += d
	s.om.running.Set(float64(len(s.running)))
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.cfg.Obs.Emit("depart", now, obs.F("req", int(s.reqOf[id].ID)), obs.F("dc", d))
	delete(s.reqOf, id)
	var err error
	if s.serve != nil {
		err = s.serve.Release(c.cells)
	} else {
		err = s.inv.ReleaseList(c.cells)
	}
	if err != nil {
		// A release failure means the simulator corrupted its own
		// bookkeeping. Surface it through Run's error return (and the
		// obs counter) instead of panicking the whole process; Run's
		// event loop stops at the next step.
		s.om.releaseFailures.Inc()
		s.cfg.Obs.Emit("release_failure", now, obs.F("cluster", id), obs.F("error", err.Error()))
		if s.failed == nil {
			s.failed = fmt.Errorf("cloudsim: release of cluster %d at t=%v failed: %w", id, now, err)
		}
		return
	}
	s.drain(now)
	if s.cfg.Migrate {
		s.migrate(now)
	}
}

// migrate tightens the running clusters into freed capacity. Relocations
// are reflected in the inventory with Move; swaps are capacity-neutral
// and need no inventory change. The planner takes dense matrices, so the
// pass materializes every running cluster and writes them back after.
func (s *Simulator) migrate(now float64) {
	if len(s.running) == 0 {
		return
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	// Deterministic order for reproducibility.
	slices.Sort(ids)
	clusters := make([]affinity.Allocation, len(ids))
	for i, id := range ids {
		clusters[i] = s.running[id].dense(s.topo.Nodes(), s.inv.Types())
	}
	plan, err := s.mig.Plan(s.topo, s.inv.RemainingView(), clusters)
	if err != nil || len(plan.Moves) == 0 {
		return
	}
	// The plan was computed against the current (single-threaded) state,
	// so it applies cleanly: relocations go through the inventory (which
	// tracks per-node occupancy), swaps are capacity-neutral.
apply:
	for _, mv := range plan.Moves {
		c := clusters[mv.Cluster]
		switch mv.Kind {
		case migration.Relocate:
			if err := s.inv.Move(mv.From, mv.To, mv.Type); err != nil {
				s.om.migrationAborts.Inc()
				s.cfg.Obs.Emit("migration_abort", now,
					obs.F("cluster", ids[mv.Cluster]),
					obs.F("error", err.Error()))
				break apply
			}
			c.Remove(mv.From, mv.Type)
			c.Add(mv.To, mv.Type)
		case migration.Swap:
			peer := clusters[mv.Peer]
			c.Remove(mv.From, mv.Type)
			c.Add(mv.To, mv.Type)
			peer.Remove(mv.To, mv.Type)
			peer.Add(mv.From, mv.Type)
		}
		s.metrics.Migrations++
		s.metrics.MigrationMB += mv.CostMB
		s.metrics.MigrationGain += mv.Gain
		s.om.migrationMoves.Inc()
		s.cfg.Obs.Emit("migrate", now,
			obs.F("move", mv.Kind.String()),
			obs.F("from", int(mv.From)),
			obs.F("to", int(mv.To)),
			obs.F("type", int(mv.Type)),
			obs.F("gain", mv.Gain),
			obs.F("cost_mb", mv.CostMB))
	}
	for i, id := range ids {
		s.running[id].cells = clusters[i].Sparse()
	}
}

// drain admits whatever the queue can serve with the freed resources.
func (s *Simulator) drain(now float64) {
	var taken []model.TimedRequest
	if s.cfg.Strict {
		taken = s.queue.GetRequestsStrict(s.inv.Available())
	} else {
		taken = s.queue.GetRequests(s.inv.Available())
	}
	if len(taken) == 0 {
		return
	}
	if s.cfg.Batch && len(taken) > 1 {
		vecs := make([]model.Request, len(taken))
		for i, r := range taken {
			vecs[i] = r.Vector
		}
		res, err := s.global.PlaceBatch(s.topo, s.inv.RemainingView(), vecs)
		if err == nil {
			for i, alloc := range res.Allocs {
				if alloc == nil {
					// Lost a race against capacity; requeue.
					s.requeue(taken[i], now)
					continue
				}
				if err := s.inv.Allocate([][]int(alloc)); err != nil {
					s.requeue(taken[i], now)
					continue
				}
				d, center := alloc.Distance(s.topo)
				s.commission(taken[i], alloc.Sparse(), d, center, now)
			}
			return
		}
	}
	for _, r := range taken {
		if !s.place(r, now) {
			s.requeue(r, now)
		}
	}
}

// requeue returns a not-served request to the tail of the wait queue. A
// bounded queue can refuse it (capacity was consumed between the take
// and the put-back); that request is then counted as rejected instead
// of silently vanishing from the accounting.
func (s *Simulator) requeue(r model.TimedRequest, now float64) {
	if err := s.queue.Enqueue(r); err != nil {
		delete(s.pendingRecovery, r.ID)
		s.reject(r, now, "requeue_full")
	}
}
