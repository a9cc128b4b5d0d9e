// Incremental evaluation of the paper's Definition 1 for the callers that
// price single-VM moves of one cluster: Algorithm 2's exchange step, the
// migration planner and the evacuation's PlanReplacement.
//
// The tiered distance model (Definition 1: SameNode < SameRack < CrossRack
// < CrossCloud) makes the center sum of a candidate k a function of four
// counts: its own w_k VMs, its rack total R = Σ_{i∈rack(k)} w_i, its cloud
// total B = Σ_{i∈cloud(k)} w_i and the cluster total T:
//
//	S_k = w_k·d0 + (R−w_k)·d1 + (B−R)·d2 + (T−B)·d3
//
// DistanceEvaluator keeps the per-node, per-rack and per-cloud totals under
// Add/Remove/Move, so each S_k costs O(1) and DC(C), whose minimum is
// attained at a hosting node (Theorem 1), costs one pass over the hosts.
//
// Exactness: with integer-valued distance tiers (the paper's 0/1/2/4) and
// integer VM counts, every aggregate product is an exactly representable
// float64, so the tier-aggregated values are bit-for-bit identical to the
// from-scratch Allocation.Distance scan no matter how many updates have
// been applied, including the lowest-node-ID tie-break.
package affinity

import (
	"fmt"
	"math"
	"slices"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// DistanceEvaluator tracks one cluster's per-node VM totals together with
// the per-rack/per-cloud aggregates of the tiered distance model. It
// mirrors an Allocation the caller mutates in lockstep (or stands alone
// when only node totals matter). Not safe for concurrent mutation;
// independent evaluators may be used from different goroutines.
type DistanceEvaluator struct {
	t      *topology.Topology
	w      []int             // VMs per node
	hosts  []topology.NodeID // ascending IDs of nodes with w > 0
	total  int               // Σ w
	rackW  []int             // VMs per rack
	cloudW []int             // VMs per cloud
}

// NewDistanceEvaluator builds an evaluator for allocation a (which may be
// nil for an initially empty cluster) on topology t. Cost: O(n·m) to read
// the matrix; the aggregates follow in O(hosts).
func NewDistanceEvaluator(t *topology.Topology, a Allocation) *DistanceEvaluator {
	e := &DistanceEvaluator{
		t:      t,
		w:      make([]int, t.Nodes()),
		rackW:  make([]int, t.Racks()),
		cloudW: make([]int, t.Clouds()),
	}
	e.reset(a)
	return e
}

// reset reloads the evaluator from allocation a, discarding all cached
// state.
func (e *DistanceEvaluator) reset(a Allocation) {
	for _, i := range e.hosts {
		e.w[i] = 0
	}
	clear(e.rackW)
	clear(e.cloudW)
	e.hosts = e.hosts[:0]
	e.total = 0
	for i := range a {
		if v := model.Sum(a[i]); v > 0 {
			e.addVMs(topology.NodeID(i), v)
		}
	}
}

// Add registers one more VM on node i in O(hosts) (the aggregate updates
// are O(1); the cost is keeping the host list sorted).
func (e *DistanceEvaluator) Add(i topology.NodeID) { e.addVMs(i, 1) }

// addVMs registers count > 0 more VMs on node i.
func (e *DistanceEvaluator) addVMs(i topology.NodeID, count int) {
	if e.w[i] == 0 {
		pos, _ := slices.BinarySearch(e.hosts, i)
		e.hosts = slices.Insert(e.hosts, pos, i)
	}
	e.w[i] += count
	e.rackW[e.t.RackOf(i)] += count
	e.cloudW[e.t.CloudOf(i)] += count
	e.total += count
}

// Remove deregisters one VM from node i. It panics when none is tracked
// there, which always indicates a desynchronized caller.
func (e *DistanceEvaluator) Remove(i topology.NodeID) {
	if e.w[i] <= 0 {
		panic(fmt.Sprintf("affinity: evaluator Remove(%d) on empty node", i))
	}
	e.w[i]--
	e.rackW[e.t.RackOf(i)]--
	e.cloudW[e.t.CloudOf(i)]--
	e.total--
	if e.w[i] == 0 {
		pos, _ := slices.BinarySearch(e.hosts, i)
		e.hosts = slices.Delete(e.hosts, pos, pos+1)
	}
}

// Move relocates one VM from p to q.
func (e *DistanceEvaluator) Move(p, q topology.NodeID) {
	if p == q {
		return
	}
	e.Remove(p)
	e.Add(q)
}

// TierSum prices S_k — the inner sum of Definition 1 — for a candidate
// center hosting wk VMs whose rack holds rackVMs and whose cloud holds
// cloudVMs of the cluster's totalVMs. Every tier-aggregated fast path in
// this repo (evaluator, one-shot DistanceOf, the placement rack probes)
// funnels through this one expression, so float comparisons between paths
// are deterministic and exact ties stay exact.
func TierSum(d topology.Distances, wk, rackVMs, cloudVMs, totalVMs int) float64 {
	return float64(wk)*d.SameNode + float64(rackVMs-wk)*d.SameRack +
		float64(cloudVMs-rackVMs)*d.CrossRack + float64(totalVMs-cloudVMs)*d.CrossCloud
}

// Distance returns DC(C) per Definition 1 with the minimizing central
// node. Ties break toward the lowest node ID, matching Allocation.Distance.
// An empty cluster has distance 0 and central node -1. Cost: O(hosts).
func (e *DistanceEvaluator) Distance() (float64, topology.NodeID) {
	return e.bestCenter(-1, -1)
}

// MovePreview prices the hypothetical relocation of one VM from p to q:
// the exact DC(C) and central node the cluster would have after the move,
// computed without mutating the evaluator. It panics when p hosts no VM.
// MovePreview(p, p) is the current Distance.
func (e *DistanceEvaluator) MovePreview(p, q topology.NodeID) (float64, topology.NodeID) {
	if e.w[p] <= 0 {
		panic(fmt.Sprintf("affinity: MovePreview(%d, %d) from empty node", p, q))
	}
	return e.bestCenter(p, q)
}

// AddPreview prices the hypothetical addition of one VM at node q: the
// exact DC(C) and central node the cluster would have with the extra VM,
// computed without mutating the evaluator. It is the evacuation planner's
// candidate probe (PlanReplacement tries every feasible host for each
// replacement VM).
func (e *DistanceEvaluator) AddPreview(q topology.NodeID) (float64, topology.NodeID) {
	return e.bestCenter(-1, q)
}

// bestCenter minimizes S_k over the cluster's hosting nodes after a
// hypothetical removal of one VM from p and addition of one VM at q; p < 0
// means no VM is removed and q < 0 means none is added, so
// bestCenter(-1, -1) is the current DC(C). The minimum over all n
// candidate centers is always attained at a hosting node (Theorem 1's
// exchange argument), so it prices each host the move leaves loaded, and
// q when the move makes it one, keeping the lowest ID on ties. A cluster
// left empty has distance 0 and central node -1.
func (e *DistanceEvaluator) bestCenter(p, q topology.NodeID) (float64, topology.NodeID) {
	total := e.total
	rp, rq, cp, cq := -1, -1, -1, -1
	if p >= 0 {
		rp, cp = e.t.RackOf(p), e.t.CloudOf(p)
		total--
	}
	if q >= 0 {
		rq, cq = e.t.RackOf(q), e.t.CloudOf(q)
		total++
	}
	if total == 0 {
		return 0, -1
	}
	d := e.t.Distances()
	best := math.Inf(1)
	bestK := topology.NodeID(-1)
	price := func(k topology.NodeID) {
		wk, r, c := e.w[k], e.t.RackOf(k), e.t.CloudOf(k)
		rw, cw := e.rackW[r], e.cloudW[c]
		if k == p {
			wk--
		}
		if k == q {
			wk++
		}
		if wk == 0 { // the removal drains k
			return
		}
		if r == rp {
			rw--
		}
		if r == rq {
			rw++
		}
		if c == cp {
			cw--
		}
		if c == cq {
			cw++
		}
		if s := TierSum(d, wk, rw, cw, total); s < best || (s == best && k < bestK) {
			best, bestK = s, k
		}
	}
	for _, h := range e.hosts {
		price(h)
	}
	if q >= 0 && e.w[q] == 0 {
		price(q)
	}
	return best, bestK
}

// DistanceOf computes Definition 1 once for per-node VM totals w restricted
// to the hosting nodes hosts (any order; ties still break toward the lowest
// node ID). It is the one-shot path for short-lived candidate placements:
// the hosts are folded into rack/cloud aggregates and only rack-level bests
// are compared — O(hosts + racks) instead of the former O(hosts²). Callers
// that evaluate repeatedly keep a DistanceScratch instead.
func DistanceOf(t *topology.Topology, hosts []topology.NodeID, w []int) (float64, topology.NodeID) {
	var s DistanceScratch
	return s.DistanceOf(t, hosts, w)
}

// DistanceScratch is the reusable working storage of DistanceOf: rack-
// and cloud-sized tallies that are left zeroed between calls, so each
// evaluation touches only the racks its hosts activate. The zero value
// is ready to use; it sizes itself to the largest topology it has seen.
// Not safe for concurrent use.
type DistanceScratch struct {
	rackW  []int             // racks: VMs per rack (zero between calls)
	cloudW []int             // clouds: VMs per cloud (zero between calls)
	bestW  []int             // racks: largest single-node load
	bestID []topology.NodeID // racks: lowest ID achieving bestW
	active []int             // racks touched by the current call
}

// DistanceOf is the package-level DistanceOf over reused storage; once
// the scratch has grown to the topology, calls allocate nothing.
func (s *DistanceScratch) DistanceOf(t *topology.Topology, hosts []topology.NodeID, w []int) (float64, topology.NodeID) {
	if len(hosts) == 0 {
		return 0, -1
	}
	if len(s.rackW) < t.Racks() {
		s.rackW = make([]int, t.Racks())
	}
	if len(s.bestW) < t.Racks() {
		s.bestW = make([]int, t.Racks())
	}
	if len(s.bestID) < t.Racks() {
		s.bestID = make([]topology.NodeID, t.Racks())
	}
	if len(s.cloudW) < t.Clouds() {
		s.cloudW = make([]int, t.Clouds())
	}
	d := t.Distances()
	rackW, cloudW, bestW, bestID := s.rackW, s.cloudW, s.bestW, s.bestID
	s.active = s.active[:0]
	total := 0
	for _, h := range hosts {
		r := t.RackOf(h)
		wh := w[h]
		if rackW[r] == 0 {
			s.active = append(s.active, r)
			bestW[r], bestID[r] = wh, h
		} else if wh > bestW[r] || (wh == bestW[r] && h < bestID[r]) {
			bestW[r], bestID[r] = wh, h
		}
		rackW[r] += wh
		cloudW[t.CloudOf(h)] += wh
		total += wh
	}
	best := math.Inf(1)
	bestK := topology.NodeID(-1)
	for _, r := range s.active {
		sum := TierSum(d, bestW[r], rackW[r], cloudW[t.CloudOfRack(r)], total)
		if sum < best || (sum == best && bestID[r] < bestK) {
			best, bestK = sum, bestID[r]
		}
	}
	for _, r := range s.active {
		rackW[r] = 0
		cloudW[t.CloudOfRack(r)] = 0
	}
	return best, bestK
}
