// Delta placement — growing and shrinking a live virtual cluster.
//
// The paper places a cluster once and holds it; the elastic job-driven
// extension (cloudsim's mid-job resize) needs two more primitives. Grow:
// extend an existing cluster C by a per-type delta, keeping the new VMs
// near C's current central node — Algorithm 1's greedy fill, started at
// that center with C's rack/cloud profile already on the tallies, so the
// merged DC(C′) is priced exactly and the fill order is the one a fresh
// build around that center would use. Shrink: give back a per-type delta
// by repeatedly removing the VM whose departure minimizes the resulting
// DC(C), probed through the evaluator's RemovePreview.
//
// The grow reuses the pooled scanScratch of the tier-aggregated scan, so
// it stays allocation-free in steady state.
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
// the VMs whose removal keeps DC(C) lowest: one VM at a time, the
// hosting node with the best RemovePreview (ties toward the lowest node
// ID, then the lowest type ID still owed). The victims are removed from
// alloc in place and returned as aggregated sparse entries — a fresh
// slice the caller may keep or hand to Inventory.ReleaseList. The call
// fails, changing nothing, if alloc holds fewer VMs of some type than
// delta asks back.
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
// delta, or whose count is negative, is an error. The working state
// comes from a pooled shrinkScratch, so a steady-state call allocates
// only the returned slice.
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
	sc := getShrink(t)
	defer putShrink(sc)
	// Aggregate the cluster's cells (duplicates summed) into a private
	// working copy and check per-type feasibility.
	sc.have = sc.have[:0]
	for range delta {
		sc.have = append(sc.have, 0)
	}
	have := sc.have
	for _, e := range cur {
		if e.Count == 0 {
			continue
		}
		have[e.Type] += e.Count
		if !addEntry(sc.cells, e.Node, e.Type, e.Count) {
			sc.cells = append(sc.cells, affinity.VMEntry{Node: e.Node, Type: e.Type, Count: e.Count})
		}
	}
	for j, v := range delta {
		if v > have[j] {
			return nil, fmt.Errorf("placement: shrink wants %d VMs of type %d back, cluster holds %d", v, j, have[j])
		}
	}
	cells := sc.cells
	ev := sc.ev
	for _, c := range cells {
		ev.AddVMs(c.Node, c.Count)
	}
	sc.need = append(sc.need[:0], delta...)
	need := sc.need
	removable := func(i topology.NodeID) bool {
		for _, c := range cells {
			if c.Node == i && c.Count > 0 && need[c.Type] > 0 {
				return true
			}
		}
		return false
	}
	for k := 0; k < K; k++ {
		bestNode := topology.NodeID(-1)
		bestDC := 0.0
		for _, i := range ev.HostingNodes() {
			if !removable(i) {
				continue
			}
			dc, _ := ev.RemovePreview(i)
			if bestNode < 0 || dc < bestDC {
				bestNode, bestDC = i, dc
			}
		}
		if bestNode < 0 {
			return nil, fmt.Errorf("placement: internal error — no removable VM for shrink %v with %d owed", delta, K-k)
		}
		// Lowest owed type on the victim node.
		bestType := model.VMTypeID(-1)
		for _, c := range cells {
			if c.Node == bestNode && c.Count > 0 && need[c.Type] > 0 {
				if bestType < 0 || c.Type < bestType {
					bestType = c.Type
				}
			}
		}
		addEntry(cells, bestNode, bestType, -1)
		need[bestType]--
		ev.Remove(bestNode)
		if !addEntry(sc.victims, bestNode, bestType, 1) {
			sc.victims = append(sc.victims, affinity.VMEntry{Node: bestNode, Type: bestType, Count: 1})
		}
	}
	return append([]affinity.VMEntry(nil), sc.victims...), nil
}

// addEntry adds count to the (node, typ) entry of es, reporting false
// when es has no such entry.
func addEntry(es []affinity.VMEntry, node topology.NodeID, typ model.VMTypeID, count int) bool {
	for i := range es {
		if es[i].Node == node && es[i].Type == typ {
			es[i].Count += count
			return true
		}
	}
	return false
}

// shrinkScratch is ReleaseSubsetSparse's working state for one topology:
// the evaluator pricing the shrinking cluster, its aggregated cells, the
// per-type held/owed tallies, and the victims being collected.
type shrinkScratch struct {
	t       *topology.Topology
	ev      *affinity.DistanceEvaluator
	cells   []affinity.VMEntry
	have    []int
	need    []int
	victims []affinity.VMEntry
}

// shrinkPool recycles shrinkScratch across calls. A pooled scratch built
// for another topology is dropped, so the pool is keyed by topology
// identity and never hands out a mis-sized evaluator.
var shrinkPool sync.Pool

// getShrink returns an empty scratch for t: a pooled one reset in
// O(hosts + clouds), or a fresh O(n) build when none matches.
func getShrink(t *topology.Topology) *shrinkScratch {
	if v := shrinkPool.Get(); v != nil {
		if sc := v.(*shrinkScratch); sc.t == t {
			sc.ev.Reset(nil)
			return sc
		}
	}
	return &shrinkScratch{t: t, ev: affinity.NewDistanceEvaluator(t, nil)}
}

func putShrink(sc *shrinkScratch) {
	sc.cells = sc.cells[:0]
	sc.victims = sc.victims[:0]
	shrinkPool.Put(sc)
}
