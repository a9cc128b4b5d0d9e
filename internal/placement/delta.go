// Delta placement — growing and shrinking a live virtual cluster.
//
// The paper places a cluster once and holds it; the elastic job-driven
// extension (cloudsim's mid-job resize) needs two more primitives. Grow:
// extend an existing cluster C by a per-type delta, keeping the new VMs
// near C's current central node — Algorithm 1's greedy fill, started at
// that center with C's rack/cloud profile already on the tallies, so the
// merged DC(C′) is priced exactly and the fill order is the one a fresh
// build around that center would use. Shrink: give back a per-type delta
// so that the DC(C) left is the least any such removal can leave. With
// the center k fixed, keeping each type's VMs nearest k is optimal, so
// the shrink prices every hosting node once in closed form and gives
// back the farthest VMs from the cheapest one (DESIGN.md §16).
//
// The grow reuses the pooled scanScratch of the tier-aggregated scan, so
// it stays allocation-free in steady state; the shrink allocates only
// its result.
package placement

import (
	"errors"
	"fmt"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// PlaceDeltaSparse extends an existing cluster by delta against the free
// capacity L of a persistent tier index, filling greedily around the
// cluster's current central node. cur holds the cluster's non-zero cells
// (it must describe VMs already committed against the inventory the
// index aliases, so they are absent from L), dst receives the delta's
// entries in take order, and the returned DC/center price the merged
// cluster. An empty cur degenerates to a full placement (center chosen
// by the scan), bit-identical to PlaceSparse. Committing the delta
// against the inventory is the caller's step, exactly as with
// PlaceSparse. Steady-state calls are allocation-free once dst and the
// pooled scratch have grown to their working sizes. cur is only read.
func (h *OnlineHeuristic) PlaceDeltaSparse(idx *affinity.TierIndex, cur []affinity.VMEntry, delta model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, error) {
	if h.Policy != ScanAllCenters {
		return 0, -1, fmt.Errorf("placement: PlaceDeltaSparse requires ScanAllCenters, placer uses %q", h.Name())
	}
	om := h.obsHandles()
	om.calls.Inc()
	dc, center, fast, err := h.placeDeltaCore(idx, cur, delta, dst)
	if err != nil {
		if errors.Is(err, ErrInsufficient) {
			om.infeasible.Inc()
		}
		return 0, -1, err
	}
	if fast {
		om.fastPath.Inc()
		om.dc.Observe(0)
	} else {
		om.dc.Observe(dc)
	}
	return dc, center, nil
}

// placeDeltaCore validates the inputs, seeds the scan tallies with the
// existing cluster, scores them for its current center, and replays the
// greedy fill of delta around that center on top of the seeded profile.
// The final score therefore prices the merged cluster exactly as
// affinity.DistanceOf would. fast reports the empty-cluster fall-through
// to the full placement's fast path. No metrics, mirroring
// placeSparseCore; the allocation-free tally work lives in the
// seedEntries/fillFrom/score helpers.
func (h *OnlineHeuristic) placeDeltaCore(idx *affinity.TierIndex, cur []affinity.VMEntry, delta model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, bool, error) {
	t := idx.Topology()
	m := idx.Types()
	if len(delta) != m {
		return 0, -1, false, fmt.Errorf("placement: delta has %d types, index has %d", len(delta), m)
	}
	curTotal := 0
	for _, e := range cur {
		if int(e.Node) < 0 || int(e.Node) >= t.Nodes() || int(e.Type) < 0 || int(e.Type) >= m {
			return 0, -1, false, fmt.Errorf("placement: cluster entry (%d, %d) outside %dx%d plant", e.Node, e.Type, t.Nodes(), m)
		}
		if e.Count < 0 {
			return 0, -1, false, fmt.Errorf("placement: cluster entry (%d, %d) has negative count %d", e.Node, e.Type, e.Count)
		}
		curTotal += e.Count
	}
	if curTotal == 0 {
		// Growing nothing is placing: let the scan pick the center.
		return h.placeSparseCore(idx, delta, dst)
	}
	if err := admitAvail(idx.Avail(), delta); err != nil {
		return 0, -1, false, err
	}
	dst.Reset(t.Nodes(), m)
	T := 0
	for _, v := range delta {
		T += v
	}
	d := t.Distances()
	s := h.getScan(t, m)
	defer h.putScan(s)
	s.resetTallies()
	s.seedEntries(cur)
	dc0, center := s.score(t, d, s.total)
	if T == 0 {
		return dc0, center, false, nil
	}
	s.resid = append(s.resid[:0], delta...)
	if !s.fillFrom(idx, center, dst, false) {
		return 0, -1, false, fmt.Errorf("placement: internal error — no delta built for feasible grow %v", delta)
	}
	dc, k := s.score(t, d, s.total)
	return dc, k, false, nil
}

// seedEntries folds an existing cluster's cells into the tallies so a
// subsequent fill extends its profile. The caller has validated the
// entries (in range, non-negative). Entries may repeat cells; each
// distinct node is credited once with its summed load, keeping the
// per-rack max-load tie-breaks order-independent.
func (s *scanScratch) seedEntries(cur []affinity.VMEntry) {
	loads := s.load()
	s.seedUniq = s.seedUniq[:0]
	for _, e := range cur {
		if e.Count == 0 {
			continue
		}
		if loads[e.Node] == 0 {
			s.seedUniq = append(s.seedUniq, e.Node)
		}
		loads[e.Node] += e.Count
	}
	for _, i := range s.seedUniq {
		w := loads[i]
		loads[i] = 0 // credit re-accumulates it
		s.credit(i, w)
	}
}

// ReleaseSubset shrinks alloc by the per-type delta, choosing as victims
// the VMs whose removal leaves the lowest DC(C) any removal of delta can
// leave. The victims are removed from alloc in place and returned as
// aggregated sparse entries — a fresh slice the caller may keep or hand
// to Inventory.ReleaseList. The call fails, changing nothing, if alloc
// holds fewer VMs of some type than delta asks back.
func ReleaseSubset(t *topology.Topology, alloc affinity.Allocation, delta model.Request) ([]affinity.VMEntry, error) {
	victims, err := ReleaseSubsetSparse(t, alloc.Sparse(), delta)
	if err != nil {
		return nil, err
	}
	for _, e := range victims {
		alloc[e.Node][e.Type] -= e.Count
	}
	return victims, nil
}

// ReleaseSubsetSparse is ReleaseSubset over the cluster's sparse cells.
// cur is only read; the returned entries alias neither cur nor any
// internal state. An entry whose node or type lies outside the plant and
// delta, or whose count is negative, is an error.
//
// The shrink is exact on the tier metric. Let keep_j = have_j − delta_j.
// For a center k fixed, the cheapest survivors keep each type's keep_j
// VMs nearest k, which leaves Σ_j min(self_j, keep_j) VMs on k itself,
// Σ_j min(rack_j, keep_j) in its rack and Σ_j min(cloud_j, keep_j) in
// its cloud, where self_j, rack_j and cloud_j count the type-j VMs at
// tier ≤ 0, 1 and 2 from k. TierSum of those counts is the least center
// sum at k of any shrink. DC of a shrunk cluster is a center sum at one
// of its own hosts, which are hosts of cur, so the least of these prices
// over cur's hosting nodes is the least DC any shrink can leave, and the
// shrink that keeps nearest its center (the lowest-ID cheapest host)
// leaves it. Each type gives back its farthest VMs first; within a tier,
// cells go in ascending (node, type) order. The working state comes from
// a pooled releaseScratch with nothing sized by the plant, so a
// steady-state call allocates only the returned slice.
func ReleaseSubsetSparse(t *topology.Topology, cur []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	K := 0
	for j, v := range delta {
		if v < 0 {
			return nil, fmt.Errorf("placement: negative shrink delta %d for type %d", v, j)
		}
		K += v
	}
	for _, e := range cur {
		if int(e.Node) < 0 || int(e.Node) >= t.Nodes() || int(e.Type) < 0 || int(e.Type) >= len(delta) {
			return nil, fmt.Errorf("placement: cluster entry (%d, %d) outside %dx%d plant", e.Node, e.Type, t.Nodes(), len(delta))
		}
		if e.Count < 0 {
			return nil, fmt.Errorf("placement: cluster entry (%d, %d) has negative count %d", e.Node, e.Type, e.Count)
		}
	}
	if K == 0 {
		return nil, nil
	}
	sc := releasePool.Get().(*releaseScratch)
	defer putRelease(sc)
	cells := affinity.Canonical(append(sc.cells[:0], cur...))
	sc.cells = cells
	m := len(delta)
	keep := append(sc.keep[:0], make([]int, m)...)
	for _, c := range cells {
		keep[c.Type] += c.Count
	}
	for j, v := range delta {
		if v > keep[j] {
			return nil, fmt.Errorf("placement: shrink wants %d VMs of type %d back, cluster holds %d", v, j, keep[j])
		}
		keep[j] -= v
	}
	sc.keep = keep

	// Price every hosting node; cells run in node order, so the first
	// strict minimum is the lowest-ID one.
	d := t.Distances()
	tally := append(sc.tally[:0], make([]int, 3*m)...)
	sc.tally = tally
	center := topology.NodeID(-1)
	best := 0.0
	for i, c := range cells {
		if i > 0 && cells[i-1].Node == c.Node {
			continue
		}
		for _, e := range cells {
			if tier := tierOf(t, c.Node, e.Node); tier < 3 {
				tally[tier*m+int(e.Type)] += e.Count
			}
		}
		w, rack, cloud, total := 0, 0, 0, 0
		for j, kj := range keep {
			self := tally[j]
			inRack := self + tally[m+j]
			inCloud := inRack + tally[2*m+j]
			w += min(self, kj)
			rack += min(inRack, kj)
			cloud += min(inCloud, kj)
			total += kj
			tally[j], tally[m+j], tally[2*m+j] = 0, 0, 0
		}
		if s := affinity.TierSum(d, w, rack, cloud, total); center < 0 || s < best {
			center, best = c.Node, s
		}
	}

	// Give back each type's farthest VMs from that center.
	owed := append(sc.owed[:0], delta...)
	sc.owed = owed
	victims := sc.victims[:0]
	for tier := 3; tier >= 0; tier-- {
		for _, c := range cells {
			if take := min(c.Count, owed[c.Type]); take > 0 && tierOf(t, center, c.Node) == tier {
				owed[c.Type] -= take
				victims = append(victims, affinity.VMEntry{Node: c.Node, Type: c.Type, Count: take})
			}
		}
	}
	sc.victims = victims
	return append([]affinity.VMEntry(nil), victims...), nil
}

// tierOf is the distance tier between nodes k and i: 0 on one node, 1 in
// one rack, 2 in one cloud, 3 across clouds.
func tierOf(t *topology.Topology, k, i topology.NodeID) int {
	switch {
	case i == k:
		return 0
	case t.RackOf(i) == t.RackOf(k):
		return 1
	case t.CloudOf(i) == t.CloudOf(k):
		return 2
	default:
		return 3
	}
}

// releaseScratch is ReleaseSubsetSparse's working state: the cluster's
// aggregated cells, the per-type kept and owed counts, one center's
// per-tier tallies, and the victims being collected. Nothing in it is
// sized by the plant, so one pool serves every topology.
type releaseScratch struct {
	cells   []affinity.VMEntry
	keep    []int
	owed    []int
	tally   []int
	victims []affinity.VMEntry
}

var releasePool = sync.Pool{New: func() any { return new(releaseScratch) }}

func putRelease(sc *releaseScratch) {
	sc.cells = sc.cells[:0]
	sc.victims = sc.victims[:0]
	releasePool.Put(sc)
}
