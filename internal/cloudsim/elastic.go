// Elastic mid-job resizing: the hybrid job-driven extension where a
// served MapReduce cluster grows for its map phase and shrinks into the
// shuffle, driven by the phase boundary estimated from the job spec
// (internal/mapreduce's PhaseSplit feeds ElasticConfig.MapFrac).
//
// Every commission requests a grow of ceil(GrowFactor·v_j) VMs per
// requested type, placed near the cluster's current center with
// placement.PlaceDelta so the merged DC(C) stays tight. Admission is
// deadline-aware: the grown VMs must serve at least MinPayoff seconds
// before the shrink boundary at arrival + MapFrac·Hold, or the grow is
// rejected outright. A deferred grow retries on a ladder of ticks
// DeferBackoff apart and expires once no tick can still pay off. A grow
// that does not fit polls every tick. A grow that would jump requests
// waiting in the queue parks off the event heap instead: no tick can
// serve it until the queue empties, and when it does, the grow rejoins
// its ladder at the first tick not yet passed. A served grow
// schedules the shrink at the boundary: placement.ReleaseSubset picks
// the DC-minimizing victims (not necessarily the VMs the grow added),
// returns them to the inventory, and offers the freed capacity to the
// wait queue like any departure.
//
// Accounting mirrors the request identity (Served + Rejected + Unplaced
// == requests): every grow op terminates in exactly one of Grows,
// GrowRejected, or Deferred, checked at the end of each run, so mid-job
// deltas can never double-count — including grows still deferred when a
// fault tears their parent down.
package cloudsim

import (
	"errors"
	"fmt"
	"math"

	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
)

// ElasticConfig enables map/shuffle-driven resizing of every served
// cluster. Elastic mode requires the indexed online heuristic and
// per-request service (no Serve, Batch, Migrate, or BatchWindow); fault
// injection composes with it.
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
	// seconds: a grow the plant cannot fit retries every DeferBackoff,
	// and one parked behind the wait queue rejoins the ladder when the
	// queue empties. 0 = 5.
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
	return nil
}

// elasticState tracks one running cluster's resize lifecycle. It exists
// only between the grow request at commission and its resolution (the
// shrink for served grows, expiry for deferred ones); depart and
// teardown cancel whatever is still scheduled.
type elasticState struct {
	growVec  model.Request   // per-type delta requested for the map phase
	deadline float64         // shrink boundary: commission + MapFrac·Hold
	grown    bool            // the grow was served (shrink owed)
	retryEv  *eventsim.Event // deferred-grow retry, bound once and re-armed per deferral
	shrinkEv *eventsim.Event // pending shrink at the boundary

	// While parked: the ladder tick of the next poll, and the neighbours
	// in the simulator's parked list. Parking links the record in and
	// expiry unlinks it, so the list holds exactly the parked grows.
	next       float64
	prev, succ *elasticState
}

// requestGrow opens the resize lifecycle of a freshly commissioned
// cluster: size the delta, run deadline admission, and attempt the grow.
func (s *Simulator) requestGrow(id int, r model.TimedRequest, now float64) {
	g := make(model.Request, len(r.Vector))
	total := 0
	for j, v := range r.Vector {
		if v > 0 {
			g[j] = int(math.Ceil(s.ecfg.GrowFactor * float64(v)))
			total += g[j]
		}
	}
	if total == 0 {
		return
	}
	s.metrics.GrowRequests++
	window := s.ecfg.MapFrac * r.Hold
	if window < s.ecfg.MinPayoff {
		s.rejectGrow(id, r.ID, now, "deadline")
		return
	}
	if !s.inv.CanEverSatisfy(g) {
		s.rejectGrow(id, r.ID, now, "oversized")
		return
	}
	s.elastic[id] = &elasticState{growVec: g, deadline: now + window}
	s.tryGrow(id, now)
}

// rejectGrow terminates a grow op at admission.
func (s *Simulator) rejectGrow(id int, req model.RequestID, now float64, reason string) {
	s.metrics.GrowRejected++
	s.om.growRejected.Inc()
	s.cfg.Obs.Emit("resize_reject", now,
		obs.F("req", int(req)),
		obs.F("cluster", id),
		obs.F("reason", reason))
}

// tryGrow attempts to place the cluster's pending delta near its current
// center. A grow never jumps the wait queue: while requests are waiting
// it parks, and while the delta does not fit it polls.
func (s *Simulator) tryGrow(id int, now float64) {
	if s.queue.Len() != 0 {
		s.parkGrow(id, now)
		return
	}
	st := s.elastic[id]
	c := s.running[id]
	dc, center, err := s.online.PlaceDeltaSparse(s.tidx, c.cells, st.growVec, &s.spd)
	if err != nil {
		if !errors.Is(err, placement.ErrInsufficient) {
			s.fail(fmt.Errorf("cloudsim: growing cluster %d: %w", id, err))
			return
		}
		s.pollGrow(id, now, err)
		return
	}
	// The tier index admitted the delta, so the inventory must take it.
	if err := s.inv.AllocateList(s.spd.Entries); err != nil {
		s.fail(fmt.Errorf("cloudsim: allocating grow of cluster %d: %w", id, err))
		return
	}
	added := c.add(s.spd.Entries)
	s.sampleUtilization(now)
	s.usedSlots += added
	st.grown = true
	s.metrics.Grows++
	s.metrics.GrowVMs += added
	s.om.grows.Inc()
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.cfg.Obs.Emit("resize_grow", now,
		obs.F("req", int(s.reqOf[id].ID)),
		obs.F("cluster", id),
		obs.F("vms", added),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	ev, serr := s.engine.At(st.deadline, func(at float64) { s.shrink(id, at) })
	if serr != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling shrink of cluster %d: %w", id, serr))
		return
	}
	st.shrinkEv = ev
}

// nextTick returns the retry ladder's tick after now, or expires the
// grow and reports false when that tick can no longer serve MinPayoff
// seconds before the boundary.
func (s *Simulator) nextTick(id int, now float64) (float64, bool) {
	next := now + s.ecfg.DeferBackoff
	if next+s.ecfg.MinPayoff > s.elastic[id].deadline {
		s.expireGrow(id, now, "deadline")
		return 0, false
	}
	return next, true
}

// pollGrow re-arms a grow the plant cannot fit at the ladder's next
// tick: any event before then may free the capacity it lacks.
func (s *Simulator) pollGrow(id int, now float64, cause error) {
	next, ok := s.nextTick(id, now)
	if !ok {
		return
	}
	typ, need, avail, _ := placement.Shortfall(cause)
	s.cfg.Obs.Emit("resize_defer", now,
		obs.F("req", int(s.reqOf[id].ID)),
		obs.F("cluster", id),
		obs.F("retry", next),
		obs.F("reason", "capacity"),
		obs.F("type", typ),
		obs.F("need", need),
		obs.F("avail", avail))
	s.armRetry(id, next)
}

// parkGrow takes a grow blocked by the wait queue off the ladder. No
// poll can serve it while requests wait, so it records the ladder's next
// tick and arms its retry at the ladder's last one, where it expires if
// the queue never empties. wakeGrows brings it back earlier.
func (s *Simulator) parkGrow(id int, now float64) {
	next, ok := s.nextTick(id, now)
	if !ok {
		return
	}
	st := s.elastic[id]
	st.next = next
	// The same float additions as polling, so the last tick is exactly
	// the one a polled grow would expire at.
	last := next
	for t := last + s.ecfg.DeferBackoff; t+s.ecfg.MinPayoff <= st.deadline; t += s.ecfg.DeferBackoff {
		last = t
	}
	st.succ = s.parked
	if st.succ != nil {
		st.succ.prev = st
	}
	s.parked = st
	s.cfg.Obs.Emit("resize_defer", now,
		obs.F("req", int(s.reqOf[id].ID)),
		obs.F("cluster", id),
		obs.F("reason", "queue"))
	s.armRetry(id, last)
}

// wakeGrows returns every parked grow to its ladder once the wait queue
// is empty: each retry re-arms at the first tick at or after now, the
// first poll that would have found the queue empty. The retry class
// makes this exact on ties: a retry woken at a tick fires after every
// other event at that tick, where its poll would have fired.
func (s *Simulator) wakeGrows(now float64) {
	for s.parked != nil {
		st := s.parked
		s.unpark(st)
		for st.next < now {
			st.next += s.ecfg.DeferBackoff
		}
		s.engine.Cancel(st.retryEv)
		if err := s.engine.Reschedule(st.retryEv, st.next); err != nil {
			s.fail(fmt.Errorf("cloudsim: waking a parked grow's retry: %w", err))
			return
		}
	}
}

// unpark unlinks st from the parked list; a grow not parked is left
// alone.
func (s *Simulator) unpark(st *elasticState) {
	switch {
	case st.prev != nil:
		st.prev.succ = st.succ
	case s.parked == st:
		s.parked = st.succ
	default:
		return
	}
	if st.succ != nil {
		st.succ.prev = st.prev
	}
	st.prev, st.succ = nil, nil
}

// armRetry schedules the grow's retry at t. The first deferral binds the
// retry callback; later ones re-arm the same event, so a long retry
// chain allocates nothing per retry. The retry's event class, 1 + id,
// fires it after every other event at its instant (arrivals,
// departures, shrinks, repairs), and among retries in cluster-id order,
// which is commission order: the order never depends on when a retry
// was armed.
func (s *Simulator) armRetry(id int, t float64) {
	st := s.elastic[id]
	var err error
	if st.retryEv == nil {
		st.retryEv, err = s.engine.AtClass(t, 1+id, func(at float64) { s.tryGrow(id, at) })
	} else {
		err = s.engine.Reschedule(st.retryEv, t)
	}
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling grow retry for cluster %d: %w", id, err))
	}
}

// expireGrow terminates a deferred grow that never served; the cluster
// carries on at its base size.
func (s *Simulator) expireGrow(id int, now float64, reason string) {
	s.unpark(s.elastic[id])
	s.metrics.Deferred++
	s.om.growDeferred.Inc()
	s.cfg.Obs.Emit("resize_expire", now,
		obs.F("req", int(s.reqOf[id].ID)),
		obs.F("cluster", id),
		obs.F("reason", reason))
	delete(s.elastic, id)
}

// shrink fires at the map/shuffle boundary of a grown cluster: give back
// exactly the grow's per-type delta, choosing the DC(C)-minimizing
// victims from the merged cluster, and offer the freed capacity to the
// wait queue like a departure would.
func (s *Simulator) shrink(id int, now float64) {
	if s.failed != nil {
		return
	}
	st := s.elastic[id]
	st.shrinkEv = nil
	c := s.running[id]
	victims, err := placement.ReleaseSubsetSparse(s.topo, c.cells, st.growVec)
	if err != nil {
		s.fail(fmt.Errorf("cloudsim: shrinking cluster %d at t=%v: %w", id, now, err))
		return
	}
	if err := s.inv.ReleaseList(victims); err != nil {
		s.om.releaseFailures.Inc()
		s.cfg.Obs.Emit("release_failure", now, obs.F("cluster", id), obs.F("error", err.Error()))
		s.fail(fmt.Errorf("cloudsim: releasing shrink of cluster %d at t=%v: %w", id, now, err))
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
		obs.F("req", int(s.reqOf[id].ID)),
		obs.F("cluster", id),
		obs.F("vms", removed),
		obs.F("dc", d))
	delete(s.elastic, id)
	s.drain(now)
}

// cancelElastic resolves a cluster's resize state when the cluster
// itself goes away (departure, or teardown by a fault). A still-deferred
// grow terminates as Deferred; a pending shrink is simply dropped — the
// grown VMs are part of the cluster's allocation and leave with it.
func (s *Simulator) cancelElastic(id int, now float64, reason string) {
	if s.elastic == nil {
		return
	}
	st := s.elastic[id]
	if st == nil {
		return
	}
	if s.engine.Cancel(st.retryEv) { // a deferred grow still waiting
		s.expireGrow(id, now, reason)
	}
	if st.shrinkEv != nil {
		s.engine.Cancel(st.shrinkEv)
		st.shrinkEv = nil
	}
	delete(s.elastic, id)
}
