// Package cloudsim simulates a cloud serving a stream of virtual-cluster
// requests over time — the paper's operational setting where "requests
// will arrive and their job will finish randomly" (Section V.A). Arrivals
// try to provision immediately with the online heuristic (Algorithm 1)
// over a tier index the simulator keeps on its inventory; requests that
// do not fit wait in the FIFO queue of package queue, and
// whenever a departing cluster releases resources, the paper's
// take-what-fits getRequests (Section III.C) re-examines them in queue
// order.
//
// Two service modes are supported: per-request (each admitted request is
// placed alone, the paper's online setting) and batch (all admissible
// queued requests are placed together with the global sub-optimization
// algorithm whenever resources free up).
package cloudsim

import (
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
	// Policy orders the wait queue; FIFO, the zero value, is the only
	// policy.
	Policy queue.Policy
	// Batch places drained queue batches with the global sub-optimization
	// algorithm instead of one-by-one online placement.
	Batch bool
	// Migrate runs the affinity-aware migration planner over the running
	// clusters after every departure, tightening them into freed
	// capacity.
	Migrate bool
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
	// Elastic, when enabled, resizes every served cluster across its
	// map/shuffle boundary: grow for the map phase, shrink into the
	// shuffle, with deadline-aware admission (see
	// internal/cloudsim/elastic.go). Requires direct per-request mode;
	// composes with Faults. The zero value leaves the static simulation
	// untouched.
	Elastic ElasticConfig
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

// SketchConfig bounds the streaming wait quantile sketch and sets the
// bucket count of both sketches; the DC sketch spans [0, 200]. Samples
// beyond a max are clamped to the top bucket (counted, with the quantile
// pinned at the bound); the bounds only need to cover the range where
// quantile resolution matters.
type SketchConfig struct {
	// WaitMax is the upper bound of the wait sketch, seconds (0 = 3600).
	WaitMax float64
	// Buckets is the bucket count of both sketches (0 = 400); the
	// worst-case quantile error is one bucket width.
	Buckets int
}

// distanceMax is the upper bound of the DC sketch, the obs placement
// histogram's range.
const distanceMax = 200

func (c SketchConfig) withDefaults() SketchConfig {
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
	Rejected int // invalid, a duplicate ID, or beyond total plant capacity
	Unplaced int // admitted but never placed before the run ended
	// DistanceSketch and WaitSketch summarize the DC of each served
	// cluster and the queueing delay of each served request in O(1)
	// memory (fixed-bucket streaming quantiles); their Value(p) is within
	// ErrorBound of the exact percentile for in-range samples. The exact
	// samples are the dc and wait fields of the trace's place events.
	DistanceSketch *stats.Quantile
	WaitSketch     *stats.Quantile
	// UtilizationAvg is the time-weighted mean fraction of plant VM slots
	// occupied between the first arrival and the last departure.
	UtilizationAvg float64
	// TotalDistance sums the served clusters' DC.
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
	topo *topology.Topology
	inv  *inventory.Inventory
	cfg  Config

	engine *eventsim.Engine
	queue  *queue.Queue
	global *placement.GlobalSubOpt
	mig    *migration.Planner

	// The online heuristic and the persistent tier index attached to the
	// inventory at construction: each placement goes through PlaceSparse
	// + AllocateList, with no per-request O(n·m) copy of the plant.
	online *placement.OnlineHeuristic
	tidx   *affinity.TierIndex
	sp     affinity.SparseAlloc
	spd    affinity.SparseAlloc // grow-delta scratch, distinct from sp

	// Sparse DC scratch (see distance): per-node totals, zero between
	// calls, and the hosting nodes of the cluster being priced.
	dcs     affinity.DistanceScratch
	dcW     []int
	dcHosts []topology.NodeID

	// Elastic resize state: resolved config, the number of open resize
	// lifecycles, the head of the list of clusters whose grows are
	// parked, and whether the current event freed capacity or drained
	// the queue (set by drain and teardown), after which finish wakes
	// the parked grows the plant can now serve.
	ecfg    ElasticConfig
	resizes int
	parked  *cluster
	freed   bool

	running map[int]*cluster // live clusters by registry ID
	free    []*cluster       // retired records, reused by commission
	nextRun int
	metrics Metrics

	// The arrival event, bound at the first arrival and re-armed for
	// each later one, the request it will deliver, and the source the
	// next one comes from.
	arrivalEv   *eventsim.Event
	nextArrival model.TimedRequest
	src         model.RequestSource
	// unresolved counts admitted requests not yet served or rejected:
	// every one of them must still be queued when the run ends.
	unresolved int

	// Drain scratch: the availability vector and the requests taken
	// from the queue. draining guards the taken scratch against a
	// nested drain.
	avail    []int
	taken    []model.TimedRequest
	draining bool

	// Fault state: the precomputed schedule and, per torn-down request,
	// the failure time — consumed when the victim is re-served so
	// time-to-recovery can be observed.
	faultPlan       []faults.Event
	pendingRecovery map[model.RequestID]float64

	// failed aborts the event loop: a release failure means the simulator
	// corrupted its own bookkeeping, so RunStream stops and surfaces the error
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

// New builds a simulator over a topology, a live inventory, and the
// online heuristic that places its requests. New attaches a tier index
// to the inventory and places through PlaceSparse.
func New(tp *topology.Topology, inv *inventory.Inventory, online *placement.OnlineHeuristic, cfg Config) (*Simulator, error) {
	if tp.Nodes() != inv.Nodes() {
		return nil, fmt.Errorf("cloudsim: topology has %d nodes, inventory %d", tp.Nodes(), inv.Nodes())
	}
	if online == nil {
		return nil, errors.New("cloudsim: nil online heuristic")
	}
	s := &Simulator{
		topo:            tp,
		inv:             inv,
		online:          online,
		cfg:             cfg,
		engine:          eventsim.New(),
		queue:           queue.New(cfg.Policy, 0),
		global:          &placement.GlobalSubOpt{Obs: cfg.Obs},
		mig:             &migration.Planner{Obs: cfg.Obs},
		running:         make(map[int]*cluster),
		pendingRecovery: make(map[model.RequestID]float64),
		dcW:             make([]int, tp.Nodes()),
	}
	sk := cfg.Sketch.withDefaults()
	s.metrics.DistanceSketch = stats.NewQuantile(0, distanceMax, sk.Buckets)
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
	s.totalSlots = model.Sum(inv.CapacityTotals())
	if s.totalSlots == 0 {
		return nil, errors.New("cloudsim: inventory has zero capacity")
	}
	idx, err := inv.AttachTierIndex(tp)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: attaching tier index: %w", err)
	}
	s.tidx = idx
	if cfg.Elastic.Enabled {
		if cfg.Batch || cfg.Migrate {
			return nil, errors.New("cloudsim: Elastic supports direct per-request mode only (no Batch or Migrate)")
		}
		if err := cfg.Elastic.validate(); err != nil {
			return nil, err
		}
		s.ecfg = cfg.Elastic.withDefaults()
	}
	return s, nil
}

// RunStream replays requests pulled lazily from src — a trace.Reader, a
// workload.OpenLoop, or any model.RequestSource — holding exactly one
// pending arrival in the event heap instead of all of them, so a
// multi-million-request replay runs in O(active clusters) memory. The
// source must honor the RequestSource contract (strictly increasing IDs,
// non-decreasing arrivals); violating and malformed requests are counted
// as rejected at the virtual time they are pulled. A slice of requests
// replays through model.NewSliceSource.
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
		if !c.sim.validRequest(r) || r.ID <= c.lastID || r.Arrival < c.lastAt {
			c.sim.reject(r, c.sim.engine.Now(), "invalid", false)
			continue
		}
		c.lastID, c.lastAt = r.ID, r.Arrival
		return r, true, nil
	}
}

// replay is RunStream's event loop: faults are scheduled up front,
// arrivals one at a time, each pulled from src as its predecessor fires.
func (s *Simulator) replay(src model.RequestSource) (*Metrics, error) {
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
// the next one. The first arrival binds the callback and its event;
// every later one re-arms that event, so the loop allocates nothing per
// arrival.
func (s *Simulator) scheduleNextArrival(src model.RequestSource) error {
	r, ok, err := src.Next()
	if err != nil {
		return fmt.Errorf("cloudsim: pulling next arrival: %w", err)
	}
	if !ok {
		return nil
	}
	s.src, s.nextArrival = src, r
	if s.arrivalEv == nil {
		s.arrivalEv, err = s.engine.AtClass(r.Arrival, arrivalClass, s.onArrival)
	} else {
		err = s.engine.Reschedule(s.arrivalEv, r.Arrival, arrivalClass)
	}
	if err != nil {
		return fmt.Errorf("cloudsim: scheduling arrival of request %d: %w", r.ID, err)
	}
	return nil
}

// onArrival is the arrival event's callback: it admits the pending
// request and schedules the next one.
func (s *Simulator) onArrival(now float64) {
	r := s.nextArrival
	s.nextArrival = model.TimedRequest{}
	s.arrive(r, now)
	if err := s.scheduleNextArrival(s.src); err != nil {
		s.fail(err)
	}
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
		// A parked grow can be served only once the queue is empty and
		// the free totals cover its delta. The queue only shrinks in
		// drain, and the free totals only grow where drain follows a
		// release (departure, shrink, repair) or in a crash's teardown,
		// so only the end of such an event can make that true.
		if s.freed {
			s.freed = false
			if s.parked != nil && s.queue.Len() == 0 {
				s.wakeGrows(s.engine.Now())
			}
		}
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
	// queued; an unresolved one not in the queue was silently lost.
	if s.unresolved != s.metrics.Unplaced {
		return nil, fmt.Errorf("cloudsim: accounting leak: %d admitted requests unresolved, %d unplaced",
			s.unresolved, s.metrics.Unplaced)
	}
	// The matching identity for mid-job deltas: every grow op must have
	// terminated, and in exactly one way.
	if s.ecfg.Enabled {
		if s.resizes != 0 {
			return nil, fmt.Errorf("cloudsim: accounting leak: %d clusters hold unresolved resize state", s.resizes)
		}
		m := &s.metrics
		if m.Grows+m.GrowRejected+m.Deferred != m.GrowRequests {
			return nil, fmt.Errorf("cloudsim: resize accounting leak: %d grown + %d rejected + %d deferred != %d requested",
				m.Grows, m.GrowRejected, m.Deferred, m.GrowRequests)
		}
	}
	// A copy: a pointer into the simulator would keep the whole plant
	// (inventory, tier index, event heap, queue, records) alive for as
	// long as the caller keeps the metrics.
	m := s.metrics
	return &m, nil
}

// validRequest filters inputs the engine or the accounting cannot
// represent: non-finite or negative times, a demand vector whose width is
// not the inventory's type count, and negative demand entries.
func (s *Simulator) validRequest(r model.TimedRequest) bool {
	if len(r.Vector) != s.inv.Types() {
		return false
	}
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

// arrive admits one request at its arrival time. A request's wait is
// measured from r.Arrival, the instant its arrival event fires.
func (s *Simulator) arrive(r model.TimedRequest, now float64) {
	s.unresolved++
	if !s.inv.CanEverSatisfy(r.Vector) {
		s.reject(r, now, "oversized", true)
		return
	}
	if s.inv.CanSatisfy(r.Vector) && s.queue.Len() == 0 {
		if s.place(r, now) {
			return
		}
	}
	if err := s.queue.Enqueue(r); err != nil {
		s.fail(fmt.Errorf("cloudsim: queueing request %d: %w", r.ID, err))
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

// reject records one turned-away request. arrived says whether it was
// admitted first (and so counts as unresolved); contract violations and
// invalid requests never arrive.
func (s *Simulator) reject(r model.TimedRequest, now float64, reason string, arrived bool) {
	if arrived {
		s.unresolved--
	}
	s.metrics.Rejected++
	s.om.rejected.Inc()
	s.cfg.Obs.Emit("queue_reject", now, obs.F("req", int(r.ID)), obs.F("reason", reason))
}

// place provisions a single request right now; returns false if the
// online heuristic could not fit it (so it should queue instead). Only
// the ErrInsufficient sentinels mean "does not fit" — any other
// placement or inventory error is a bug and aborts the run instead of
// being misread as a full cloud.
func (s *Simulator) place(r model.TimedRequest, now float64) bool {
	d, center, err := s.online.PlaceSparse(s.tidx, r.Vector, &s.sp)
	if err != nil {
		if !errors.Is(err, placement.ErrInsufficient) {
			s.fail(fmt.Errorf("cloudsim: placing request %d: %w", r.ID, err))
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

// commission records a served cluster in a reused record, copied from
// its placement entries, and schedules its departure. The caller
// supplies the cluster's data center distance and central node — the
// sparse path gets them from the placement itself instead of
// recomputing them.
func (s *Simulator) commission(r model.TimedRequest, entries []affinity.VMEntry, d float64, center topology.NodeID, now float64) {
	c := s.takeRecord()
	c.add(entries)
	s.sampleUtilization(now)
	s.usedSlots += c.vms
	wait := now - r.Arrival
	s.unresolved--
	s.metrics.Served++
	c.id, c.req, c.d, c.wait = s.nextRun, r, d, wait
	s.nextRun++
	s.running[c.id] = c
	s.metrics.DistanceSketch.Observe(d)
	s.metrics.WaitSketch.Observe(wait)
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
	var err error
	if at := s.engine.Now() + r.Hold; c.departEv == nil {
		c.departEv, err = s.engine.At(at, func(at float64) { s.depart(c, at) })
	} else {
		err = s.engine.Reschedule(c.departEv, at, 0)
	}
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling departure of cluster %d: %w", c.id, err))
		return
	}
	if s.ecfg.Enabled {
		// The map phase starts now: open the cluster's resize lifecycle.
		s.requestGrow(c, now)
	}
}

func (s *Simulator) depart(c *cluster, now float64) {
	s.cancelElastic(c, now, "departed")
	delete(s.running, c.id)
	s.sampleUtilization(now)
	s.usedSlots -= c.vms
	d, _ := s.distance(c)
	s.metrics.FinalDistanceSum += d
	s.om.running.Set(float64(len(s.running)))
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.cfg.Obs.Emit("depart", now, obs.F("req", int(c.req.ID)), obs.F("dc", d))
	if err := s.inv.ReleaseList(c.cells); err != nil {
		// A release failure means the simulator corrupted its own
		// bookkeeping. Surface it through RunStream's error return (and
		// the obs counter) instead of panicking the whole process; the
		// event loop stops at the next step.
		s.om.releaseFailures.Inc()
		s.cfg.Obs.Emit("release_failure", now, obs.F("cluster", c.id), obs.F("error", err.Error()))
		if s.failed == nil {
			s.failed = fmt.Errorf("cloudsim: release of cluster %d at t=%v failed: %w", c.id, now, err)
		}
		return
	}
	s.retire(c)
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
// The availability and the taken requests go through reused scratch. No
// path from a placement leads back into drain, so the taken scratch is
// never overwritten while it is being served; the draining flag checks
// that.
func (s *Simulator) drain(now float64) {
	if s.draining {
		s.fail(errors.New("cloudsim: nested drain"))
		return
	}
	s.freed = true
	s.avail = s.inv.AppendAvailable(s.avail[:0])
	s.taken = s.queue.AppendRequests(s.taken[:0], s.avail)
	if len(s.taken) == 0 {
		return
	}
	s.draining = true
	s.admit(s.taken, now)
	s.draining = false
	// Drop the served requests so the scratch pins no request vectors.
	clear(s.taken)
}

// admit serves the requests a drain took from the queue, requeueing any
// that no longer fit.
func (s *Simulator) admit(taken []model.TimedRequest, now float64) {
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
					s.requeue(taken[i])
					continue
				}
				if err := s.inv.Allocate([][]int(alloc)); err != nil {
					s.requeue(taken[i])
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
			s.requeue(r)
		}
	}
}

// requeue returns a not-served request to the tail of the wait queue.
// The queue is unbounded and IDs are deduplicated at intake, so a
// refusal is a bookkeeping bug and aborts the run.
func (s *Simulator) requeue(r model.TimedRequest) {
	if err := s.queue.Enqueue(r); err != nil {
		s.fail(fmt.Errorf("cloudsim: requeueing request %d: %w", r.ID, err))
	}
}
