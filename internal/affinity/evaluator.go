// Incremental evaluation of the paper's Definition 1. Every optimizer in
// this repo proposes single-VM moves and needs DC(C) after each candidate;
// recomputing it from the allocation matrix costs O(hosts²·m) per call.
//
// The tiered distance model (Definition 1: SameNode < SameRack < CrossRack
// < CrossCloud) makes DC(C) a function of per-rack and per-cloud VM
// aggregates only. For a candidate center k with w_k VMs, rack total
// R = Σ_{i∈rack(k)} w_i, cloud total B = Σ_{i∈cloud(k)} w_i and cluster
// total T:
//
//	S_k = w_k·d0 + (R−w_k)·d1 + (B−R)·d2 + (T−B)·d3
//
// so DistanceEvaluator maintains rack/cloud totals under Add/Remove/Move in
// O(1) and answers DistanceFrom in O(1). Minimizing S_k over a rack means
// maximizing w_k (d0 < d1), so DC(C) is found by ranking racks on the
// aggregate lower bound R·d0 + (B−R)·d2 + (T−B)·d3 (all rack VMs
// concentrated on the center) and scanning hosting nodes only inside racks
// whose bound can still beat the incumbent — O(racks) plus the pruned rack
// scans, instead of the O(hosts) per-center cached sums this file used to
// keep.
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
	"sort"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// DistanceEvaluator tracks one cluster's per-node VM totals together with
// the per-rack/per-cloud aggregates of the tiered distance model. It
// mirrors an Allocation the caller mutates in lockstep (or stands alone
// when only node totals matter). Not safe for concurrent mutation;
// independent evaluators may be used from different goroutines.
type DistanceEvaluator struct {
	t     *topology.Topology
	w     []int             // VMs per node
	hosts []topology.NodeID // ascending IDs of nodes with w > 0
	total int               // Σ w

	rackW     []int               // VMs per rack
	cloudW    []int               // VMs per cloud
	rackHosts [][]topology.NodeID // hosting nodes per rack, ascending
	active    []int               // racks with rackW > 0, unordered
	rackPos   []int               // index of rack in active, -1 when inactive

	// Scan scratch, reused across Distance/MovePreview calls.
	scanRacks []int
	scanLB    []float64
	scanRW    []int
	scanCW    []int
}

// NewDistanceEvaluator builds an evaluator for allocation a (which may be
// nil for an initially empty cluster) on topology t. Cost: O(n·m) to read
// the matrix; the aggregates follow in O(hosts).
func NewDistanceEvaluator(t *topology.Topology, a Allocation) *DistanceEvaluator {
	e := &DistanceEvaluator{
		t:         t,
		w:         make([]int, t.Nodes()),
		rackW:     make([]int, t.Racks()),
		cloudW:    make([]int, t.Clouds()),
		rackHosts: make([][]topology.NodeID, t.Racks()),
		rackPos:   make([]int, t.Racks()),
		scanRacks: make([]int, 0, t.Racks()+1),
		scanLB:    make([]float64, 0, t.Racks()+1),
		scanRW:    make([]int, 0, t.Racks()+1),
		scanCW:    make([]int, 0, t.Racks()+1),
	}
	for r := range e.rackPos {
		e.rackPos[r] = -1
	}
	if a != nil {
		e.Reset(a)
	}
	return e
}

// Reset reloads the evaluator from allocation a, discarding all cached
// state.
func (e *DistanceEvaluator) Reset(a Allocation) {
	for _, i := range e.hosts {
		e.w[i] = 0
	}
	for _, r := range e.active {
		e.rackW[r] = 0
		e.rackHosts[r] = e.rackHosts[r][:0]
		e.rackPos[r] = -1
	}
	for c := range e.cloudW {
		e.cloudW[c] = 0
	}
	e.hosts = e.hosts[:0]
	e.active = e.active[:0]
	e.total = 0
	for i := range a {
		if v := model.Sum(a[i]); v > 0 {
			e.AddVMs(topology.NodeID(i), v)
		}
	}
}

// Add registers one more VM on node i in O(hosts) (the aggregate updates
// are O(1); the cost is keeping the hosting-node lists sorted).
func (e *DistanceEvaluator) Add(i topology.NodeID) { e.AddVMs(i, 1) }

// AddVMs registers count more VMs on node i.
func (e *DistanceEvaluator) AddVMs(i topology.NodeID, count int) {
	if count <= 0 {
		panic(fmt.Sprintf("affinity: AddVMs(%d, %d) with non-positive count", i, count))
	}
	r := e.t.RackOf(i)
	c := e.t.CloudOf(i)
	if e.w[i] == 0 {
		insertSorted(&e.hosts, i)
		insertSorted(&e.rackHosts[r], i)
	}
	if e.rackW[r] == 0 {
		e.rackPos[r] = len(e.active)
		e.active = append(e.active, r)
	}
	e.w[i] += count
	e.rackW[r] += count
	e.cloudW[c] += count
	e.total += count
}

// Remove deregisters one VM from node i. It panics when none is tracked
// there, which always indicates a desynchronized caller.
func (e *DistanceEvaluator) Remove(i topology.NodeID) {
	if e.w[i] <= 0 {
		panic(fmt.Sprintf("affinity: evaluator Remove(%d) on empty node", i))
	}
	r := e.t.RackOf(i)
	c := e.t.CloudOf(i)
	e.w[i]--
	e.rackW[r]--
	e.cloudW[c]--
	e.total--
	if e.w[i] == 0 {
		deleteSorted(&e.hosts, i)
		deleteSorted(&e.rackHosts[r], i)
	}
	if e.rackW[r] == 0 {
		// Swap-remove r from the active rack list.
		pos := e.rackPos[r]
		last := e.active[len(e.active)-1]
		e.active[pos] = last
		e.rackPos[last] = pos
		e.active = e.active[:len(e.active)-1]
		e.rackPos[r] = -1
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

func insertSorted(s *[]topology.NodeID, i topology.NodeID) {
	ids := *s
	pos := sort.Search(len(ids), func(x int) bool { return ids[x] >= i })
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = i
	*s = ids
}

func deleteSorted(s *[]topology.NodeID, i topology.NodeID) {
	ids := *s
	pos := sort.Search(len(ids), func(x int) bool { return ids[x] >= i })
	*s = append(ids[:pos], ids[pos+1:]...)
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

// DistanceFrom returns Σ_i w_i·D_ik for candidate center k — the inner sum
// of Definition 1 before minimization — in O(1) from the aggregates.
func (e *DistanceEvaluator) DistanceFrom(k topology.NodeID) float64 {
	return TierSum(e.t.Distances(), e.w[k], e.rackW[e.t.RackOf(k)], e.cloudW[e.t.CloudOf(k)], e.total)
}

// Distance returns DC(C) per Definition 1 with the minimizing central
// node. Ties break toward the lowest node ID, matching Allocation.Distance.
// An empty cluster has distance 0 and central node -1. Cost: O(active
// racks) plus a hosting-node scan of the racks whose aggregate lower bound
// survives pruning.
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
// exchange argument), so only hosting nodes are scanned. A cluster left
// empty has distance 0 and central node -1.
//
// Pass 1 prices each candidate rack's lower bound (its whole rack total
// concentrated on one node); pass 2 scans hosting nodes only in racks whose
// bound ties or beats the incumbent, seeded from the tightest rack. The
// bound is computed by the same expression as the exact sum, so pruning on
// lb > best never discards an exact tie.
func (e *DistanceEvaluator) bestCenter(p, q topology.NodeID) (float64, topology.NodeID) {
	d := e.t.Distances()
	total := e.total
	rp, rq, cp, cq := -1, -1, -1, -1
	racks := append(e.scanRacks[:0], e.active...)
	if p >= 0 {
		rp, cp = e.t.RackOf(p), e.t.CloudOf(p)
		total--
	}
	if q >= 0 {
		rq, cq = e.t.RackOf(q), e.t.CloudOf(q)
		total++
		if e.rackW[rq] == 0 {
			racks = append(racks, rq)
		}
	}
	if total == 0 {
		return 0, -1
	}
	lbs := e.scanLB[:0]
	rws := e.scanRW[:0]
	cws := e.scanCW[:0]
	seed := -1
	for idx, r := range racks {
		rw := e.rackW[r]
		cl := e.t.CloudOfRack(r)
		cw := e.cloudW[cl]
		if r == rp {
			rw--
		}
		if r == rq {
			rw++
		}
		if cl == cp {
			cw--
		}
		if cl == cq {
			cw++
		}
		rws = append(rws, rw)
		cws = append(cws, cw)
		if rw == 0 { // the removal drains this rack entirely
			lbs = append(lbs, math.Inf(1))
			continue
		}
		lb := TierSum(d, rw, rw, cw, total)
		lbs = append(lbs, lb)
		if seed < 0 || lb < lbs[seed] {
			seed = idx
		}
	}
	e.scanRacks, e.scanLB, e.scanRW, e.scanCW = racks, lbs, rws, cws

	best := math.Inf(1)
	bestK := topology.NodeID(-1)
	scan := func(idx int) {
		r := racks[idx]
		maxW := 0
		maxID := topology.NodeID(-1)
		for _, h := range e.rackHosts[r] {
			wh := e.w[h]
			if h == p {
				wh--
			}
			if h == q {
				wh++
			}
			if wh == 0 {
				continue
			}
			if wh > maxW || (wh == maxW && h < maxID) {
				maxW, maxID = wh, h
			}
		}
		if r == rq && e.w[q] == 0 {
			// q becomes a hosting node only with the added VM.
			if 1 > maxW || (1 == maxW && q < maxID) {
				maxW, maxID = 1, q
			}
		}
		if maxW == 0 {
			return
		}
		if s := TierSum(d, maxW, rws[idx], cws[idx], total); s < best || (s == best && maxID < bestK) {
			best, bestK = s, maxID
		}
	}
	scan(seed)
	for idx := range racks {
		if idx == seed || lbs[idx] > best {
			continue
		}
		scan(idx)
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
