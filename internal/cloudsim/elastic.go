// Elastic mid-job resizing: the hybrid job-driven extension where a
// served MapReduce cluster grows for its map phase and shrinks into the
// shuffle, driven by the phase boundary estimated from the job spec
// (internal/mapreduce's PhaseSplit feeds ElasticConfig.MapFrac).
//
// Every commission requests a grow of ceil(GrowFactor·v_j) VMs per
// requested type, placed near the cluster's current center with
// placement.PlaceDeltaSparse so the merged DC(C) stays tight. Admission
// is deadline-aware: the grown VMs must serve at least MinPayoff seconds
// before the shrink boundary at arrival + MapFrac·Hold, or the grow is
// rejected outright. A deferred grow retries on a ladder of ticks
// DeferBackoff apart and expires once no tick can still pay off. While
// requests wait in the queue, or while the plant's free capacity does
// not cover the delta, no tick can serve the grow, so it parks off the
// event heap. An event that frees capacity or drains the queue wakes
// every parked grow the plant can now take, and each rejoins its ladder
// at the first tick not yet passed. A served grow schedules
// the shrink at the boundary: the placer's ReleaseSubsetSparse picks the
// victims that leave the least DC any removal of the delta can leave
// (not necessarily the VMs the grow added), returns them to the
// inventory, and offers the freed capacity to the wait queue like any
// departure.
//
// Accounting mirrors the request identity (Served + Rejected + Unplaced
// == requests): every grow op terminates in exactly one of Grows,
// GrowRejected, or Deferred, checked at the end of each run, so mid-job
// deltas can never double-count — including grows still deferred when a
// fault tears their parent down.
package cloudsim

import (
	"fmt"
	"math"

	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
)

// ElasticConfig enables map/shuffle-driven resizing of every served
// cluster. Elastic mode requires per-request service (no Batch or
// Migrate); fault injection composes with it.
type ElasticConfig struct {
	// Enabled turns elastic resizing on; the zero value leaves every
	// code path of the static simulation untouched.
	Enabled bool
	// GrowFactor sizes the map-phase boost: each served request grows by
	// ceil(GrowFactor·v_j) VMs of every type j it requested. Required in
	// (0, ∞).
	GrowFactor float64
	// MapFrac is the map phase's share of each job's hold time, in
	// (0, 1): the shrink fires at commission + MapFrac·Hold. Derive it
	// from a representative job spec with mapreduce.JobSpec.PhaseSplit.
	MapFrac float64
	// MinPayoff is the minimum seconds the grown VMs must serve before
	// the shrink boundary for a grow to be worth its churn; grows that
	// cannot meet it are rejected at admission, and deferred grows
	// expire once no retry can meet it. 0 = 1.
	MinPayoff float64
	// DeferBackoff spaces a deferred grow's retry ladder, in simulation
	// seconds: a parked grow woken by freed capacity or an emptied queue
	// retries at the ladder's next tick, and one never woken expires at
	// its last. 0 = 5; a positive value below 1e-3 is refused.
	DeferBackoff float64
}

func (c ElasticConfig) withDefaults() ElasticConfig {
	if c.MinPayoff <= 0 {
		c.MinPayoff = 1
	}
	if c.DeferBackoff <= 0 {
		c.DeferBackoff = 5
	}
	return c
}

func (c ElasticConfig) validate() error {
	if !(c.GrowFactor > 0) || math.IsInf(c.GrowFactor, 0) {
		return fmt.Errorf("cloudsim: Elastic.GrowFactor must be positive and finite, got %v", c.GrowFactor)
	}
	if !(c.MapFrac > 0 && c.MapFrac < 1) {
		return fmt.Errorf("cloudsim: Elastic.MapFrac must be in (0, 1), got %v", c.MapFrac)
	}
	for _, v := range []float64{c.MinPayoff, c.DeferBackoff} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("cloudsim: Elastic.MinPayoff/DeferBackoff must be finite and non-negative")
		}
	}
	if c.DeferBackoff != 0 && c.DeferBackoff < minDeferBackoff {
		return fmt.Errorf("cloudsim: Elastic.DeferBackoff %v is below the %v s floor", c.DeferBackoff, minDeferBackoff)
	}
	return nil
}

// minDeferBackoff is the finest retry ladder New accepts, in simulation
// seconds. parkGrow's last-tick loop and wakeGrows' catch-up loop step
// the ladder one tick at a time, so a 100-second hold at MapFrac 0.4
// takes 4e4 steps at this floor and 4e7 at 1e-6. A backoff below half
// the float spacing of t (about 1.1e-16·t) does not move
// `t += DeferBackoff` at all, so at 1e-300 the ladder never advances.
// Every configuration in the repo uses 5.
const minDeferBackoff = 1e-3

// elasticState is one cluster's resize lifecycle, embedded in its
// record. A lifecycle is open (active) from the grow request at
// commission until it resolves: the shrink for a served grow, expiry for
// a deferred one; depart and teardown cancel whatever is still
// scheduled. The retry and shrink events are bound at the record's first
// use and re-armed by every later lifecycle, and growVec keeps its
// backing array, so a lifecycle allocates nothing once its record has
// served one before.
type elasticState struct {
	active   bool            // a grow op is open (pending, deferred, or owing its shrink)
	growVec  model.Request   // per-type delta requested for the map phase
	deadline float64         // shrink boundary: commission + MapFrac·Hold
	retryEv  *eventsim.Event // deferred-grow retry
	shrinkEv *eventsim.Event // shrink at the boundary

	// While parked: the ladder tick of the next attempt, and the
	// neighbours in the simulator's parked list. Parking links the record
	// in, and waking, a retry firing or expiry unlinks it, so the list
	// holds exactly the parked grows. last is the ladder's last tick,
	// computed at the op's first park (0 until then).
	next, last float64
	prev, succ *cluster
}

// requestGrow opens the resize lifecycle of a freshly commissioned
// cluster: size the delta, run deadline admission, and attempt the grow.
func (s *Simulator) requestGrow(c *cluster, now float64) {
	r := c.req
	if len(c.growVec) < len(r.Vector) {
		c.growVec = make(model.Request, len(r.Vector))
	}
	g := c.growVec[:len(r.Vector)]
	total := 0
	for j, v := range r.Vector {
		g[j] = 0
		if v > 0 {
			g[j] = int(math.Ceil(s.ecfg.GrowFactor * float64(v)))
			total += g[j]
		}
	}
	c.growVec = g
	if total == 0 {
		return
	}
	s.metrics.GrowRequests++
	window := s.ecfg.MapFrac * r.Hold
	if window < s.ecfg.MinPayoff {
		s.rejectGrow(c, now, "deadline")
		return
	}
	if !s.inv.CanEverSatisfy(g) {
		s.rejectGrow(c, now, "oversized")
		return
	}
	c.active, c.deadline, c.last = true, now+window, 0
	s.resizes++
	s.tryGrow(c, now)
}

// rejectGrow terminates a grow op at admission.
func (s *Simulator) rejectGrow(c *cluster, now float64, reason string) {
	s.metrics.GrowRejected++
	s.om.growRejected.Inc()
	s.cfg.Obs.Emit("resize_reject", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("reason", reason))
}

// tryGrow attempts to place the cluster's pending delta near its current
// center. A grow never jumps the wait queue and never asks the placer
// for more than the plant has free: in either case it parks. Otherwise
// PlaceDeltaSparse admits against the same free totals, so it must
// succeed, and any error from it is a bug that aborts the run. A retry
// that fires while its grow is parked, at the ladder's last tick, takes
// the grow off the parked list first.
func (s *Simulator) tryGrow(c *cluster, now float64) {
	s.unpark(c)
	if s.queue.Len() != 0 || !model.Covers(s.tidx.Avail(), c.growVec) {
		s.parkGrow(c, now)
		return
	}
	dc, center, err := s.online.PlaceDeltaSparse(s.tidx, c.cells, c.growVec, &s.spd)
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: growing cluster %d: %w", c.id, err))
		return
	}
	// The tier index admitted the delta, so the inventory must take it.
	if err := s.inv.AllocateList(s.spd.Entries); err != nil {
		s.fail(fmt.Errorf("cloudsim: allocating grow of cluster %d: %w", c.id, err))
		return
	}
	added := c.add(s.spd.Entries)
	s.sampleUtilization(now)
	s.usedSlots += added
	s.metrics.Grows++
	s.metrics.GrowVMs += added
	s.om.grows.Inc()
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.cfg.Obs.Emit("resize_grow", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("vms", added),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	if c.shrinkEv == nil {
		c.shrinkEv, err = s.engine.At(c.deadline, func(at float64) { s.shrink(c, at) })
	} else {
		err = s.engine.Reschedule(c.shrinkEv, c.deadline, 0)
	}
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling shrink of cluster %d: %w", c.id, err))
	}
}

// nextTick returns the retry ladder's tick after now, or expires the
// grow and reports false when that tick can no longer serve MinPayoff
// seconds before the boundary, or does not come after now at all: from
// t ≈ 2^56 on, now + DeferBackoff (5 by default) rounds back to now.
func (s *Simulator) nextTick(c *cluster, now float64) (float64, bool) {
	next := now + s.ecfg.DeferBackoff
	if next <= now || next+s.ecfg.MinPayoff > c.deadline {
		s.expireGrow(c, now, "deadline")
		return 0, false
	}
	return next, true
}

// parkGrow takes a grow that cannot be served now off the ladder. It
// records the ladder's next tick and arms its retry at the ladder's last
// one, where it expires if nothing wakes it first; wakeGrows brings it
// back earlier. The op's first park writes its one resize_defer line,
// which says what blocked it: the wait queue, or the first type whose
// free total falls short of the delta.
func (s *Simulator) parkGrow(c *cluster, now float64) {
	next, ok := s.nextTick(c, now)
	if !ok {
		return
	}
	c.next = next
	if c.last == 0 {
		// Every attempt after the commission one runs on a ladder tick,
		// so all parks of one grow op share one last tick: compute it at
		// the first park, by the same float additions as the ladder's
		// ticks, so it is exactly the tick nextTick would expire at. A
		// step that does not advance ends the ladder, as it does in
		// nextTick.
		last := next
		for t := last + s.ecfg.DeferBackoff; t > last && t+s.ecfg.MinPayoff <= c.deadline; t += s.ecfg.DeferBackoff {
			last = t
		}
		c.last = last
		s.emitDefer(c, now)
	}
	c.succ = s.parked
	if c.succ != nil {
		c.succ.prev = c
	}
	s.parked = c
	s.armRetry(c, c.last)
}

// emitDefer writes a grow op's resize_defer line. With the queue empty,
// tryGrow parked the grow because some type of its delta falls short.
func (s *Simulator) emitDefer(c *cluster, now float64) {
	if s.queue.Len() != 0 {
		s.cfg.Obs.Emit("resize_defer", now,
			obs.F("req", int(c.req.ID)),
			obs.F("cluster", c.id),
			obs.F("reason", "queue"))
		return
	}
	avail := s.tidx.Avail()
	j := 0
	for c.growVec[j] <= avail[j] {
		j++
	}
	s.cfg.Obs.Emit("resize_defer", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("reason", "capacity"),
		obs.F("type", j),
		obs.F("need", c.growVec[j]),
		obs.F("avail", avail[j]))
}

// wakeGrows returns to the ladder every parked grow the plant can now
// serve. The caller runs it after an event that freed capacity or
// drained the queue, once the queue is empty; those are the only events
// after which a parked grow's attempt can succeed. A grow whose delta
// the free totals cover re-arms its retry at the first tick at or after
// now: every tick before now found it blocked, and its attempt at that
// tick sees the plant exactly as a retry polled at every tick would.
// The retry class makes this exact on ties: a retry woken at a tick
// fires after every other event at that tick, where a polled retry
// would have fired. A woken grow that loses the capacity before its
// tick parks again at that tick.
func (s *Simulator) wakeGrows(now float64) {
	avail := s.tidx.Avail()
	for c := s.parked; c != nil; {
		succ := c.succ
		if model.Covers(avail, c.growVec) {
			s.unpark(c)
			// The catch-up retraces parkGrow's ladder, which reached
			// c.last >= now; a step that does not advance stops it
			// anyway, and Reschedule then refuses the past tick instead
			// of hanging.
			for c.next < now {
				t := c.next + s.ecfg.DeferBackoff
				if t <= c.next {
					break
				}
				c.next = t
			}
			s.engine.Cancel(c.retryEv)
			if err := s.engine.Reschedule(c.retryEv, c.next, 1+c.id); err != nil {
				s.fail(fmt.Errorf("cloudsim: waking a parked grow's retry: %w", err))
				return
			}
		}
		c = succ
	}
}

// unpark unlinks c from the parked list; a grow not parked is left
// alone.
func (s *Simulator) unpark(c *cluster) {
	switch {
	case c.prev != nil:
		c.prev.succ = c.succ
	case s.parked == c:
		s.parked = c.succ
	default:
		return
	}
	if c.succ != nil {
		c.succ.prev = c.prev
	}
	c.prev, c.succ = nil, nil
}

// armRetry schedules the grow's retry at t. The record's first deferral
// binds the retry callback; later ones re-arm the same event, so a long
// retry chain allocates nothing per retry. The retry's event class,
// 1 + id, fires it after every other event at its instant (arrivals,
// departures, shrinks, repairs), and among retries in cluster-id order,
// which is commission order: the order never depends on when a retry
// was armed. A reused record re-arms in its new ID's class.
func (s *Simulator) armRetry(c *cluster, t float64) {
	var err error
	if c.retryEv == nil {
		c.retryEv, err = s.engine.AtClass(t, 1+c.id, func(at float64) { s.tryGrow(c, at) })
	} else {
		err = s.engine.Reschedule(c.retryEv, t, 1+c.id)
	}
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling grow retry for cluster %d: %w", c.id, err))
	}
}

// expireGrow terminates a deferred grow that never served; the cluster
// carries on at its base size.
func (s *Simulator) expireGrow(c *cluster, now float64, reason string) {
	s.unpark(c)
	s.metrics.Deferred++
	s.om.growDeferred.Inc()
	s.cfg.Obs.Emit("resize_expire", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("reason", reason))
	s.closeResize(c)
}

// shrink fires at the map/shuffle boundary of a grown cluster: give back
// exactly the grow's per-type delta, choosing from the merged cluster
// the victims that leave the least DC(C), and offer the freed capacity
// to the wait queue like a departure would.
func (s *Simulator) shrink(c *cluster, now float64) {
	if s.failed != nil {
		return
	}
	victims, err := s.online.ReleaseSubsetSparse(s.topo, c.cells, c.growVec)
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: shrinking cluster %d at t=%v: %w", c.id, now, err))
		return
	}
	if err := s.inv.ReleaseList(victims); err != nil {
		s.om.releaseFailures.Inc()
		s.cfg.Obs.Emit("release_failure", now, obs.F("cluster", c.id), obs.F("error", err.Error()))
		s.fail(fmt.Errorf("cloudsim: releasing shrink of cluster %d at t=%v: %w", c.id, now, err))
		return
	}
	removed := c.remove(victims)
	s.sampleUtilization(now)
	s.usedSlots -= removed
	s.metrics.Shrinks++
	s.om.shrinks.Inc()
	s.om.usedSlots.Set(float64(s.usedSlots))
	d, _ := s.distance(c)
	s.cfg.Obs.Emit("resize_shrink", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("vms", removed),
		obs.F("dc", d))
	s.closeResize(c)
	s.drain(now)
}

// cancelElastic resolves a cluster's resize state when the cluster
// itself goes away (departure, or teardown by a fault). A still-deferred
// grow terminates as Deferred; a pending shrink is simply dropped — the
// grown VMs are part of the cluster's allocation and leave with it.
// Afterwards the record holds no pending resize event.
func (s *Simulator) cancelElastic(c *cluster, now float64, reason string) {
	if !c.active {
		return
	}
	if s.engine.Cancel(c.retryEv) { // a deferred grow still waiting
		s.expireGrow(c, now, reason)
	}
	s.engine.Cancel(c.shrinkEv)
	s.closeResize(c)
}

// closeResize marks a cluster's resize lifecycle resolved.
func (s *Simulator) closeResize(c *cluster) {
	if c.active {
		c.active = false
		s.resizes--
	}
}
