// Fault handling: the crash/repair callbacks the simulator schedules
// from a faults.Plan, and the recovery machinery they trigger.
//
// A crash zeroes the failed nodes' capacity in the inventory (dropping
// the VMs they hosted) and degrades every running cluster with VMs on
// them. A degraded cluster with survivors is first offered in-place
// evacuation — replacement VMs placed by the migration planner to
// minimize the resulting DC. If no capacity exists (or the whole
// cluster died), the cluster is torn down and its original request
// re-placed from scratch: immediate attempt, then exponential backoff
// retries, and finally a park at the head of the wait queue so the
// next drain — typically fired by the repair — serves it first. A
// repair restores the nodes' capacity and triggers a drain (and
// migration pass when enabled).
package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/topology"
)

func nodeInts(nodes []topology.NodeID) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = int(n)
	}
	return out
}

// crash applies one failure event: capacity loss, cluster degradation,
// and recovery. Clusters are visited in ascending registry order so the
// recovery sequence is deterministic.
func (s *Simulator) crash(ev faults.Event, now float64) {
	if s.failed != nil {
		return
	}
	s.sampleUtilization(now)
	s.metrics.Failures++
	s.om.faults.Inc()
	for _, n := range ev.Nodes {
		if _, err := s.inv.FailNode(n); err != nil {
			s.fail(fmt.Errorf("cloudsim: failing node %d at t=%v: %w", n, now, err))
			return
		}
	}
	s.cfg.Obs.Emit("fault", now,
		obs.F("kind", ev.Kind.String()),
		obs.F("id", ev.FailureID),
		obs.F("nodes", nodeInts(ev.Nodes)),
		obs.F("rack", ev.Rack))
	// Collect the IDs before recovering any cluster: a torn-down
	// cluster's record can be reused at once by its own re-placement,
	// under a new ID this crash must not visit.
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if s.failed != nil {
			return
		}
		s.degrade(s.running[id], ev.Nodes, now)
	}
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.om.running.Set(float64(len(s.running)))
}

// degrade strips one cluster's VMs on the dead nodes and recovers it:
// evacuation when the survivors can be topped up from residual
// capacity, whole-cluster re-placement otherwise.
func (s *Simulator) degrade(c *cluster, dead []topology.NodeID, now float64) {
	lostVec := make(model.Request, s.inv.Types())
	lostVMs := 0
	kept := c.cells[:0]
	for _, e := range c.cells {
		if slices.Contains(dead, e.Node) {
			lostVec[e.Type] += e.Count
			lostVMs += e.Count
			continue
		}
		kept = append(kept, e)
	}
	c.cells = kept
	if lostVMs == 0 {
		return
	}
	c.vms -= lostVMs
	s.usedSlots -= lostVMs
	s.metrics.LostVMs += lostVMs
	survivors := c.vms
	s.cfg.Obs.Emit("degraded", now,
		obs.F("req", int(c.req.ID)),
		obs.F("cluster", c.id),
		obs.F("lost", lostVMs),
		obs.F("survivors", survivors))
	if survivors > 0 {
		repl, err := migration.PlanReplacement(s.topo, s.inv.RemainingView(), c.dense(s.topo.Nodes(), s.inv.Types()), lostVec)
		if err == nil {
			s.evacuate(c, repl.Sparse(), lostVMs, now)
			return
		}
		if !errors.Is(err, migration.ErrNoCapacity) {
			s.fail(fmt.Errorf("cloudsim: planning evacuation of cluster %d: %w", c.id, err))
			return
		}
	}
	s.teardown(c, now)
}

// evacuate commits a replacement plan: the new VMs are allocated and
// merged into the running cluster, which keeps its identity, departure
// time, and served sample.
func (s *Simulator) evacuate(c *cluster, repl []affinity.VMEntry, lostVMs int, now float64) {
	if err := s.inv.AllocateList(repl); err != nil {
		s.fail(fmt.Errorf("cloudsim: allocating evacuation of cluster %d: %w", c.id, err))
		return
	}
	c.add(repl)
	s.usedSlots += lostVMs
	s.metrics.Evacuations++
	s.om.evacuations.Inc()
	s.om.recoverySeconds.Observe(0)
	s.cfg.Obs.Emit("recover", now,
		obs.F("req", int(c.req.ID)),
		obs.F("method", "evacuate"),
		obs.F("delay", 0.0))
}

// teardown removes a cluster that cannot be recovered in place,
// releases its surviving VMs, rolls back its served sample, and starts
// whole-cluster re-placement for its original request (which keeps its
// arrival time, so a re-serve reports the true total wait). The record
// is retired before the re-placement, which may take it straight back.
func (s *Simulator) teardown(c *cluster, now float64) {
	s.cancelElastic(c, now, "teardown")
	r := c.req
	s.engine.Cancel(c.departEv)
	delete(s.running, c.id)
	s.usedSlots -= c.vms
	if err := s.inv.ReleaseList(c.cells); err != nil {
		s.om.releaseFailures.Inc()
		s.cfg.Obs.Emit("release_failure", now, obs.F("cluster", c.id), obs.F("error", err.Error()))
		s.fail(fmt.Errorf("cloudsim: release of torn-down cluster %d at t=%v failed: %w", c.id, now, err))
		return
	}
	s.freed = true
	// Roll back the served sample: Metrics counts clusters that ran (or
	// are running) to completion. The obs counters deliberately keep
	// counting commissions instead. The record carries the exact floats
	// observed at commission, so the rollback is O(1).
	s.metrics.Served--
	s.metrics.TotalDistance -= c.d
	s.metrics.DistanceSketch.Remove(c.d)
	s.metrics.WaitSketch.Remove(c.wait)
	s.om.running.Set(float64(len(s.running)))
	s.om.usedSlots.Set(float64(s.usedSlots))
	s.unresolved++
	s.pendingRecovery[r.ID] = now
	s.metrics.Requeued++
	s.cfg.Obs.Emit("requeue", now, obs.F("req", int(r.ID)), obs.F("cluster", c.id))
	s.retire(c)
	s.retryPlace(r, 0, now)
}

// retryPlace attempts direct re-placement of a torn-down request, with
// exponential backoff between attempts. Once attempts are exhausted the
// request is parked at the head of the wait queue — it keeps first
// claim on whatever capacity the repair brings back.
func (s *Simulator) retryPlace(r model.TimedRequest, attempt int, now float64) {
	if s.failed != nil {
		return
	}
	if s.place(r, now) {
		return
	}
	if s.failed != nil {
		return
	}
	attempt++
	rc := s.cfg.Recovery.withDefaults()
	if attempt >= rc.MaxAttempts {
		s.metrics.RetriesExhausted++
		s.om.retriesExhausted.Inc()
		s.cfg.Obs.Emit("retries_exhausted", now,
			obs.F("req", int(r.ID)),
			obs.F("attempts", attempt))
		if err := s.queue.EnqueueFront(r); err != nil {
			s.fail(fmt.Errorf("cloudsim: requeueing recovered request %d: %w", r.ID, err))
			return
		}
		s.cfg.Obs.Emit("queue_admit", now, obs.F("req", int(r.ID)))
		return
	}
	delay := rc.Backoff * math.Pow(rc.Factor, float64(attempt-1))
	if _, err := s.engine.After(delay, func(at float64) { s.retryPlace(r, attempt, at) }); err != nil {
		s.fail(fmt.Errorf("cloudsim: scheduling recovery retry for request %d: %w", r.ID, err))
	}
}

// repair restores the failed nodes' capacity and immediately offers it
// to the queue (and the migration planner, when enabled) — exactly like
// a departure frees capacity.
func (s *Simulator) repair(ev faults.Event, now float64) {
	if s.failed != nil {
		return
	}
	for _, n := range ev.Nodes {
		if err := s.inv.RestoreNode(n); err != nil {
			s.fail(fmt.Errorf("cloudsim: restoring node %d at t=%v: %w", n, now, err))
			return
		}
	}
	s.cfg.Obs.Emit("repair", now,
		obs.F("id", ev.FailureID),
		obs.F("nodes", nodeInts(ev.Nodes)))
	s.drain(now)
	if s.cfg.Migrate {
		s.migrate(now)
	}
}
