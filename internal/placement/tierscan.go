// The tier-aggregated center scan over a persistent affinity.TierIndex —
// the successor of the per-call rack-probe scan. Instead of building one
// candidate allocation per rack, the scan prices every rack's best
// achievable DC in closed form from the index aggregates and only
// simulates builds inside the handful of racks that can define the
// winner.
//
// Derivation. Algorithm 1's greedy fill is order-independent at the
// aggregate level: whatever the center, rack ρ as a whole absorbs
// exactly min(Σ_{i∈ρ} L_ij, R_j) VMs of type j, its cloud absorbs
// min(Σ_{i∈cloud} L_ij, R_j), and the build totals T = Σ_j R_j. A
// center c therefore yields, for its own rack,
//
//	inS(c) = TierSum(maxLoad(c), rackTot_ρ, cloudTot_cl(ρ), T)
//
// where maxLoad(c) ≤ w_ρ = max_{i∈ρ} Σ_j min(L_ij, R_j), with equality
// when c is the rack's max-capacity node (the center always takes its
// full com(L_c, R)). Since TierSum is non-increasing in each count
// argument, the rack's best in-rack price is
//
//	S_probe(ρ) = TierSum(w_ρ, rackTot_ρ, cloudTot_cl(ρ), T)
//
// and every hosting node of every build — in ANY rack ρ', reached from
// ANY center — prices at least S_probe(ρ'): its load, rack take and
// cloud take are bounded by w_ρ', rackTot_ρ' and cloudTot_cl(ρ'). So
//
//	M = min over racks with rackTot > 0 of S_probe(ρ)
//
// is the exact optimum DC over all centers, computable from the index
// in O(racks·m) with zero builds. The same monotonicity gives a cloud-
// tier bound checked first: TierSum(ubW_c, cloudTot_c, cloudTot_c, T)
// with ubW_c = min(CloudMaxNodeTotal, cloudTot_c) lower-bounds S_probe
// of every rack in cloud c (no rack absorbs more than its cloud, and
// cloudTot_c ≤ T), so no rack of a pruned cloud is probed. scanBound needs
// only M's value, so it prunes a cloud or rack whose bound merely ties
// the incumbent (>= M): such a rack cannot lower M. It is the slow
// path's one pass over the racks before the sweep: the same loop
// records each rack's and cloud's absorbable share of R and the largest
// node and rack shares, which the sweep's floors and bounded builds read.
//
// The winner — the lowest-ID center achieving M, matching the
// exhaustive scan's first-strict-improvement semantics bit for bit —
// is found by walking racks in ascending lowest-node-ID order: the
// build around a rack's lowest node is simulated and scored (its DC is
// min(inS, out), and out, the best price over hosting nodes outside
// the center's rack, is center-independent within a rack because the
// post-rack-phase residual is); if that misses M and the rack ties
// S_probe(ρ) == M, later centers of the rack are tested by in-rack
// fill simulation alone, since out > M is already known. The walk
// stops as soon as no remaining rack can hold a lower-ID center. It
// prunes only with strict >, since a tie may be the lowest-ID winner.
//
// Further devices keep the scan sub-linear in nodes on a loaded plant,
// none of which changes a placement:
//
//   - Fast path as an index query. The single-node fast path is
//     TierIndex.FirstCover: one descent of the index's cover tree, whose
//     leaves hold the column maxima of 16 consecutive node IDs, and a
//     scan of one leaf's rows. It returns the lowest covering node ID
//     whatever the plant's numbering, without walking racks.
//   - Node cap. The scan runs only once the fast path has failed, which
//     proves that no row covers R: every node absorbs at most T−1 VMs
//     of it. Every upper bound on one node's load (scanBound's cloud
//     and rack bounds, W* and the sweep's in-rack floors) is clamped to
//     T−1, so a rack that absorbs anything prices at least one VM off
//     its best node instead of a vacuous 0.
//   - Cloud runs. The sweep steps through RacksByLowestNode by maximal
//     runs of same-cloud racks (topology.CloudRunEnd) and jumps over a
//     whole run whose cloud absorbs nothing of R. An imported plant may
//     interleave clouds in that order; it simply has more runs.
//   - Shared remote builds. A center whose rack absorbs nothing builds a
//     purely remote fill that is identical for every such center of its
//     cloud, so its DC is memoized per cloud. When the whole cloud
//     absorbs nothing its near bucket is empty too, and the fill is the
//     same purely-far drain for every such cloud: one memo slot serves
//     them all, so the saturated prefix of the walk under churn costs
//     one build.
//   - Lazy drains and floors. Build simulations never scan the node
//     population: the remote fill drains a bound-ordered heap of
//     containers (drainBucket). The same-cloud bucket enters as racks
//     and the far bucket as whole clouds, bounded by Σ_j
//     min(CloudMaxCol_j, resid0_j) and the cloud's largest node total;
//     a cloud opens into its racks, and a rack, bounded by Σ_j
//     min(RackMaxCol_j, resid0_j) and its largest node total, into exact
//     per-node supplies, each only when its bound could hold the next
//     take. An opened rack stays in the same heap as a cursor keyed by
//     its best untaken node, and re-keys itself by its next best after
//     each take, so no node enters a heap of its own. So a build touches
//     the clouds and racks that supply it, not every rack of the plant.
//     Partially drained racks are skipped without any simulation when
//     closed-form floors prove both their in-rack and out-of-rack
//     hosting prices exceed M (see sweep).
//   - Lazy rack phase. The center's rack peers enter a heap only with a
//     positive supply and leave it only while the residual lasts, so a
//     build whose first one or two peers cover the residual does not
//     sort the rest.
//   - No dead phases. A build skips its rack phase when the center holds
//     all its rack has of every type still needed, and the same-cloud
//     bucket when the center's rack holds all its cloud has: every peer,
//     or every other rack of the cloud, would supply nothing. The first
//     skip fires in every purely remote build, and both in the one that
//     clouds absorbing nothing share.
//   - Floor exit. No center prices below F = TierSum(T−1, T, T, T), so
//     the bound pass stops at the first rack that prices F. The racks it
//     never reached get their caps on first read (rackCapOf).
//   - Winner reuse. The sweep's full builds write into the caller's
//     allocation, and the scratch records whose build it holds. The
//     winner's build is replayed only when an in-rack test settled it.
//   - Abandoned test builds. The sweep's full builds carry M. Before the
//     drain opens another container, reachable floors the final price
//     of every touched rack, of each touched cloud's untouched racks and
//     of the untouched clouds from the VMs still to place, and the build
//     stops once every floor exceeds M: it counts as DC > M. A build
//     that reaches M never stops, and the winner's replay is unbounded.
//
// Every bound above leans on TierSum falling as its node, rack or cloud
// count grows, which holds because topology.Distances.Validate admits only
// SameNode < SameRack < CrossRack < CrossCloud; the fill's near-before-
// far bucket order relies on the same check.
//
// The scan's heaps, tallies and memo slots live in a scanScratch that
// the placer keeps from one call to the next and rebuilds only when a
// call's topology or type count differs from the last call's, so a
// steady-state scan allocates nothing.
package placement

import (
	"errors"
	"fmt"
	"math"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// PlaceSparse places request r against the persistent tier index idx,
// writing the allocation into dst (reset first; entries in take order)
// and returning the allocation's DC and central node — bitwise equal to
// Allocation.Distance of the dense form. The index must be current for
// the matrix it aliases. Steady-state calls are allocation-free once dst
// and the placer's scratch have grown to their working sizes.
func (h *OnlineHeuristic) PlaceSparse(idx *affinity.TierIndex, r model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, error) {
	om := h.obsHandles()
	om.calls.Inc()
	dc, center, fast, err := h.placeSparseCore(idx, r, dst)
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

// placeSparseCore runs admission, the single-node fast path and the
// tier-aggregated center scan. No metrics; callers map the returned
// fast flag and error onto their counters.
func (h *OnlineHeuristic) placeSparseCore(idx *affinity.TierIndex, r model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, bool, error) {
	t := idx.Topology()
	m := idx.Types()
	if len(r) != m {
		return 0, -1, false, fmt.Errorf("placement: request has %d types, index has %d", len(r), m)
	}
	if err := admitAvail(idx.Avail(), r); err != nil {
		return 0, -1, false, err
	}
	dst.Reset(t.Nodes(), m)
	T := 0
	for _, v := range r {
		T += v
	}
	d := t.Distances()
	s := h.scratch(t, m)
	s.dst = dst

	// Fast path (Algorithm 1, lines 9–14): the lowest-ID node covering R
	// outright, one query of the index's cover tree.
	if id := idx.FirstCover(r); id >= 0 {
		for j, v := range r {
			if v > 0 {
				dst.Add(id, model.VMTypeID(j), v)
			}
		}
		if T == 0 {
			return 0, -1, true, nil
		}
		return float64(T) * d.SameNode, id, true, nil
	}

	// The fast path failed, so no node covers R and none absorbs more
	// than T−1 VMs of it (T ≥ 1 here: a zero request is covered).
	wCap := T - 1
	M := s.scanBound(idx, r, T, wCap)
	winner := s.sweep(idx, r, T, wCap, M)
	if winner < 0 {
		return 0, -1, false, fmt.Errorf("placement: internal error — no center achieves bound %g for request %v", M, r)
	}
	// A winner the sweep settled by a full build left that build in dst
	// and the tallies; only an in-rack winner needs its build replayed.
	if s.built != winner && !s.buildFull(idx, r, winner, math.Inf(1)) {
		return 0, -1, false, fmt.Errorf("placement: internal error — no allocation built for feasible request %v", r)
	}
	dc, center := s.score(t, d, T)
	return dc, center, false, nil
}

// scanScratch is the working state of the indexed scan, sized to one
// topology and type count.
type scanScratch struct {
	t *topology.Topology
	m int

	resid   []int             // m: working residual of the current sim
	resid0  []int             // m: residual snapshot as the remote phase began
	nodeSup []int             // n, lazy: per-candidate supply (written before read)
	peers   []topology.NodeID // node max-heap of the center's positive-supply rack peers

	// The remote bucket's containers are unopened racks ρ, unopened
	// clouds c keyed Racks()+c, and opened racks keyed Racks()+Clouds()+ρ,
	// in one max-heap ordered by key value, then by key node. An unopened
	// container's value bounds its nodes' supplies and its key node is its
	// lowest node, fixed per topology; an opened rack's are the supply and
	// ID of its best untaken node.
	ctHeap []int             // container max-heap of the current remote bucket
	ctUb   []int             // containers: key value, keyed to resid0
	ctLow  []topology.NodeID // containers: key node

	// dst is the allocation of the last PlaceSparse call. The sweep's
	// full builds write into it, and built names the center whose full
	// build dst and the tallies hold (-1: none).
	dst   *affinity.SparseAlloc
	built topology.NodeID

	total     int               // VMs taken by the current sim
	rackTake  []int             // racks: VMs taken per rack
	rackMaxW  []int             // racks: largest single-node load
	rackBest  []topology.NodeID // racks: lowest ID achieving rackMaxW
	touched   []int             // racks with rackTake > 0
	cloudTake []int             // clouds: VMs taken per cloud
	tclouds   []int             // clouds with cloudTake > 0
	nodeLoad  []int             // n, lazy: cumulative VMs per node this sim
	lnodes    []topology.NodeID // nodes with nodeLoad > 0
	seedUniq  []topology.NodeID // distinct nodes of the seeded entries

	// cloudDC0 memoizes the DC of a purely remote build, one slot per
	// cloud plus a last slot shared by every cloud that absorbs
	// nothing of the request; cloudMemo marks the slots valid this sweep.
	cloudDC0  []float64
	cloudMemo []bool
	memoList  []int // slots with cloudMemo set, for O(set) reset

	// The sweep's test builds are bounded: bound is the optimum M they
	// must reach (+Inf for every other build), and reachable abandons a
	// build, setting aborted, once no hosting node can still price at M.
	// cloudCap holds what each cloud can take of the request req, rackCap
	// what each rack can, wStar and rStar the largest node and rack
	// shares, reqT its total; scanBound sets them once per request. A
	// rack's cap is valid only while capSeen holds the request's capGen:
	// scanBound may stop before it reaches a rack, and rackCapOf fills the
	// cap on first read. deadFar, deadClouds and deadRacks mark the floors
	// already proven above the bound in the current build.
	bound                 float64
	aborted               bool
	req                   []int // m
	rackCap               []int // racks
	capSeen               []int // racks
	capGen                int
	cloudCap              []int // clouds
	wStar, rStar, reqT    int
	deadFar               bool
	deadClouds, deadRacks int
}

func newScanScratch(t *topology.Topology, m int) *scanScratch {
	nr, nc := t.Racks(), t.Clouds()
	low := make([]topology.NodeID, nr+nc+nr)
	for c := range t.Clouds() {
		low[nr+c] = math.MaxInt
		for _, rho := range t.CloudRacks(c) {
			low[rho] = t.RackNodes(rho)[0]
			low[nr+c] = min(low[nr+c], low[rho])
		}
	}
	// rackCap, capSeen and cloudCap share backing arrays with rackTake
	// and cloudTake, and req with resid0, which saves four allocations
	// each time a placer builds its scratch.
	racks, clouds, snap := make([]int, 3*nr), make([]int, 2*nc), make([]int, 2*m)
	return &scanScratch{
		t:         t,
		m:         m,
		resid:     make([]int, 0, m),
		resid0:    snap[:0:m],
		req:       snap[m:],
		ctUb:      make([]int, nr+nc+nr),
		ctLow:     low,
		built:     -1,
		rackTake:  racks[:nr:nr],
		rackMaxW:  make([]int, t.Racks()),
		rackBest:  make([]topology.NodeID, t.Racks()),
		touched:   make([]int, 0, 16),
		cloudTake: clouds[:nc:nc],
		tclouds:   make([]int, 0, t.Clouds()),
		cloudDC0:  make([]float64, t.Clouds()+1),
		cloudMemo: make([]bool, t.Clouds()+1),
		memoList:  make([]int, 0, t.Clouds()+1),
		bound:     math.Inf(1),
		rackCap:   racks[nr : 2*nr : 2*nr],
		capSeen:   racks[2*nr:],
		cloudCap:  clouds[nc:],
	}
}

// scratch returns the placer's scan scratch, rebuilt when t or m
// differs from the last call's.
func (h *OnlineHeuristic) scratch(t *topology.Topology, m int) *scanScratch {
	if s := h.scan; s != nil && s.t == t && s.m == m {
		return s
	}
	h.scan = newScanScratch(t, m)
	return h.scan
}

// sup returns the lazily-sized per-node supply scratch. It is only
// needed once a build leaves the fast path, so plants that never spill
// past their racks stay O(racks) in memory touched per request.
func (s *scanScratch) sup() []int {
	if len(s.nodeSup) < s.t.Nodes() {
		s.nodeSup = make([]int, s.t.Nodes())
	}
	return s.nodeSup
}

// load returns the lazily-sized cumulative per-node load tally. In a
// fresh build every node is taken at most once, so the tally mirrors
// take's per-visit amounts; delta builds (placeDeltaCore) seed it with
// the existing cluster first, so a node both hosting C and taking delta
// VMs prices at its merged load.
func (s *scanScratch) load() []int {
	if len(s.nodeLoad) < s.t.Nodes() {
		s.nodeLoad = make([]int, s.t.Nodes())
	}
	return s.nodeLoad
}

// rackProbe returns rack ρ's absorbed total rackTot = Σ_j min(Σ_{i∈ρ}
// L_ij, R_j) and exact max single-node capacity w_ρ = max_{i∈ρ} Σ_j
// min(L_ij, R_j). When no column maximum exceeds its R_j the per-node
// minima are vacuous and w_ρ is the index's RackMaxTotal; otherwise the
// rack's nodes are scanned.
func (s *scanScratch) rackProbe(idx *affinity.TierIndex, r model.Request, rho int) (rackTot, w int) {
	rr := idx.RackRemain(rho)
	mc := idx.RackMaxCol(rho)
	capped := false
	for j, need := range r {
		if v := rr[j]; v < need {
			rackTot += v
		} else {
			rackTot += need
		}
		if mc[j] > need {
			capped = true
		}
	}
	if !capped {
		return rackTot, idx.RackMaxTotal(rho)
	}
	l := idx.Matrix()
	for _, id := range s.t.RackNodes(rho) {
		if nc := nodeCapOf(l[id], r); nc > w {
			w = nc
		}
	}
	return rackTot, w
}

// nodeCapOf is Σ_j min(L_ij, R_j) — how much of R one node can absorb.
func nodeCapOf(li []int, r model.Request) int {
	c := 0
	for j, need := range r {
		if k := li[j]; k < need {
			c += k
		} else {
			c += need
		}
	}
	return c
}

// cloudTot is Σ_j min(Σ_{i∈cloud} L_ij, R_j).
func cloudTotOf(idx *affinity.TierIndex, r model.Request, c int) int {
	cr := idx.CloudRemain(c)
	tot := 0
	for j, need := range r {
		if v := cr[j]; v < need {
			tot += v
		} else {
			tot += need
		}
	}
	return tot
}

// scanBound computes M, the exact optimum DC, from the index alone:
// cloud-tier bounds first, rack-tier bounds inside surviving clouds,
// exact S_probe only for racks whose bound still beats the incumbent.
// Only M's value is needed, so a bound that ties M prunes too. wCap
// bounds any one node's share of r (T−1 once the fast path has failed).
//
// No center prices below the floor F = TierSum(wCap, T, T, T): its node
// takes at most wCap, its rack and cloud at most T, and TierSum falls in
// each count. A rack whose w_ρ is wCap and whose rackTot is T prices
// exactly F, so the pass stops there with M = F.
//
// The same pass records what the sweep's skip floors and every bounded
// build read: what each cloud can take of r (cloudCap, before the rack
// loop), what each rack it reaches can take (rackCap; rackCapOf fills
// the others on first read), the largest node share W* = min(max_ρ Σ_j
// min(RackMaxCol_j, R_j), wCap), the largest rack share R* = max_ρ
// rackCap, and the total T. A pass that stops at the floor has just
// folded in a rack whose node share is wCap and whose rack share is T,
// the caps of W* and R*, so they read as after a full pass.
func (s *scanScratch) scanBound(idx *affinity.TierIndex, r model.Request, T, wCap int) float64 {
	t := s.t
	d := t.Distances()
	s.req = append(s.req[:0], r...)
	s.reqT = T
	s.capGen++
	for c := 0; c < t.Clouds(); c++ {
		s.cloudCap[c] = cloudTotOf(idx, r, c)
	}
	M := math.Inf(1)
	wStar, rStar := 0, 0
clouds:
	for c := 0; c < t.Clouds(); c++ {
		ct := s.cloudCap[c]
		if ct == 0 {
			continue
		}
		// No rack of the cloud takes more than the cloud, ct ≤ T.
		ubW := min(idx.CloudMaxNodeTotal(c), ct, wCap)
		pruned := affinity.TierSum(d, ubW, ct, ct, T) >= M
		for _, rho := range t.CloudRacks(c) {
			rr := idx.RackRemain(rho)
			mc := idx.RackMaxCol(rho)
			rackTot, wv := 0, 0
			for j, need := range r {
				rackTot += min(rr[j], need)
				wv += min(mc[j], need)
			}
			s.rackCap[rho], s.capSeen[rho] = rackTot, s.capGen
			wStar, rStar = max(wStar, wv), max(rStar, rackTot)
			if pruned || rackTot == 0 {
				continue
			}
			wUb := min(wv, idx.RackMaxTotal(rho), rackTot, wCap)
			if affinity.TierSum(d, wUb, rackTot, ct, T) >= M {
				continue
			}
			_, w := s.rackProbe(idx, r, rho)
			if S := affinity.TierSum(d, w, rackTot, ct, T); S < M {
				M = S
			}
			if w == wCap && rackTot == T {
				break clouds
			}
		}
	}
	s.wStar, s.rStar = min(wStar, wCap), rStar
	return M
}

// rackCapOf is rack rho's cap for the request scanBound last saw,
// Σ_j min(RackRemain_j, R_j), computed on its first read when the bound
// pass stopped before the rack.
func (s *scanScratch) rackCapOf(idx *affinity.TierIndex, rho int) int {
	if s.capSeen[rho] != s.capGen {
		rr := idx.RackRemain(rho)
		v := 0
		for j, need := range s.req {
			v += min(rr[j], need)
		}
		s.rackCap[rho], s.capSeen[rho] = v, s.capGen
	}
	return s.rackCap[rho]
}

// sweep finds the lowest-ID center whose build achieves DC == M. Racks
// are visited in ascending lowest-node order; each rack's lowest node
// is judged by a full build simulation (covering both the in-rack price
// and the center-independent out-of-rack price), and only racks tying
// S_probe == M scan further centers, by in-rack simulation alone.
//
// Racks that absorb nothing of R — common under churn, where the walk
// crosses a prefix of saturated racks before reaching free capacity —
// cost no simulation of their own: such a center takes nothing at home
// (per-type rack remain and R meet in no column, so every node row
// meets R in no column either), its rack contributes only zero-supply
// candidates to everyone else, and the purely remote fill that results
// is identical for every empty-rack center of the cloud (remoteDC). A
// run of racks whose whole cloud absorbs nothing is settled at its
// first, lowest node and then jumped: all such clouds share one build.
// A rack that absorbs some of R but prices S_probe above M can still
// host the winner only through an out-of-rack hosting node, and that
// node's price has a closed-form floor: it loads at most W* (the
// largest request-clamped node capacity anywhere, capped at wCap), its
// rack takes at most amax = min(R*, T−h) VMs (R* the largest rack
// absorption anywhere; h = rackTot_ρ VMs stay home), and its cloud at
// most T. TierSum(min(W*, amax), amax, T, T) > M proves no remote host
// reaches M either, and the rack is skipped without simulating.
// Every full build the sweep runs is bounded by M (buildFull), and an
// abandoned lowest-node build still leaves its rack to the in-rack tie
// test. The caps, W* and R* are the ones scanBound recorded for r.
func (s *scanScratch) sweep(idx *affinity.TierIndex, r model.Request, T, wCap int, M float64) topology.NodeID {
	t := s.t
	d := t.Distances()
	l := idx.Matrix()
	order := t.RacksByLowestNode()
	for _, c := range s.memoList {
		s.cloudMemo[c] = false
	}
	s.memoList = s.memoList[:0]
	winner := topology.NodeID(-1)
	ct := 0
	for p, runEnd := 0, 0; p < len(order); p++ {
		rho := order[p]
		nodes := t.RackNodes(rho)
		if winner >= 0 && nodes[0] > winner {
			break
		}
		if p == runEnd {
			runEnd = t.CloudRunEnd(p)
			if ct = s.cloudCap[t.CloudOfRack(rho)]; ct == 0 {
				if s.remoteDC(idx, r, nodes[0], t.Clouds(), M) == M {
					winner = nodes[0]
				}
				p = runEnd - 1
				continue
			}
		}
		h := s.rackCapOf(idx, rho)
		if h == 0 {
			if s.remoteDC(idx, r, nodes[0], t.CloudOfRack(rho), M) == M {
				winner = nodes[0]
			}
			continue
		}
		// In-rack floor first: wUb ≥ w_ρ makes the TierSum a lower bound
		// on S_probe, so Slb > M certifies every in-rack host prices above
		// M without the exact max-capacity scan.
		mc := idx.RackMaxCol(rho)
		wUb := 0
		for j, need := range r {
			wUb += min(mc[j], need)
		}
		wUb = min(wUb, idx.RackMaxTotal(rho), h, wCap)
		if affinity.TierSum(d, wUb, h, ct, T) > M {
			amax := min(s.rStar, T-h)
			if affinity.TierSum(d, min(s.wStar, amax), amax, T, T) > M {
				continue
			}
		}
		if s.buildFull(idx, r, nodes[0], M) {
			if dc0, _ := s.score(t, d, T); dc0 == M {
				winner = nodes[0]
				continue
			}
		}
		// The build missed M, or was abandoned once it provably could not
		// reach it: either way the lowest node prices above M.
		rackTot, w := s.rackProbe(idx, r, rho)
		if affinity.TierSum(d, w, rackTot, ct, T) != M {
			continue
		}
		// S_probe ties M but the lowest node missed it, so out > M and a
		// center wins iff its in-rack fill concentrates w on one node. A
		// center whose own capacity is w proves that outright; the rack's
		// max-capacity node guarantees termination.
		for _, c := range nodes[1:] {
			if winner >= 0 && c > winner {
				break
			}
			if nodeCapOf(l[c], r) == w {
				winner = c
				break
			}
			s.buildSim(idx, r, c, nil, true)
			if affinity.TierSum(d, s.rackMaxW[rho], rackTot, ct, T) == M {
				winner = c
				break
			}
		}
	}
	return winner
}

// remoteDC returns the DC of the purely remote build around center,
// whose rack absorbs nothing of r, memoized in slot for the rest of the
// sweep. The slot is the center's cloud, or the shared last slot when
// the whole cloud absorbs nothing: such a center's near bucket is empty
// as well, so its build is the same far drain from every such cloud.
// The build is bounded by M; an abandoned one memoizes +Inf, since only
// a DC equal to M is ever asked for.
func (s *scanScratch) remoteDC(idx *affinity.TierIndex, r model.Request, center topology.NodeID, slot int, M float64) float64 {
	if !s.cloudMemo[slot] {
		dc0 := math.Inf(1)
		if s.buildFull(idx, r, center, M) {
			dc0, _ = s.score(s.t, s.t.Distances(), s.reqT)
		}
		s.cloudDC0[slot] = dc0
		s.cloudMemo[slot] = true
		s.memoList = append(s.memoList, slot)
	}
	return s.cloudDC0[slot]
}

// resetTallies clears only the cells the previous simulation touched.
func (s *scanScratch) resetTallies() {
	for _, rr := range s.touched {
		s.rackTake[rr] = 0
	}
	for _, c := range s.tclouds {
		s.cloudTake[c] = 0
	}
	for _, i := range s.lnodes {
		s.nodeLoad[i] = 0
	}
	s.touched = s.touched[:0]
	s.tclouds = s.tclouds[:0]
	s.lnodes = s.lnodes[:0]
	s.total = 0
	s.built = -1
	s.aborted, s.deadFar = false, false
	s.deadClouds, s.deadRacks = 0, 0
}

// credit folds w VMs on node i into the rack/cloud/node tallies. The
// rack's max-load compare uses the node's cumulative load, so a second
// credit to the same node re-ranks it at its merged total.
func (s *scanScratch) credit(i topology.NodeID, w int) {
	loads := s.load()
	if loads[i] == 0 {
		s.lnodes = append(s.lnodes, i)
	}
	loads[i] += w
	lw := loads[i]
	rr := s.t.RackOf(i)
	if s.rackTake[rr] == 0 {
		s.touched = append(s.touched, rr)
		s.rackMaxW[rr], s.rackBest[rr] = lw, i
	} else if lw > s.rackMaxW[rr] || (lw == s.rackMaxW[rr] && i < s.rackBest[rr]) {
		s.rackMaxW[rr], s.rackBest[rr] = lw, i
	}
	s.rackTake[rr] += w
	cl := s.t.CloudOf(i)
	if s.cloudTake[cl] == 0 {
		s.tclouds = append(s.tclouds, cl)
	}
	s.cloudTake[cl] += w
	s.total += w
}

// take absorbs com(L_i, residual) into the tallies (and dst when
// non-nil), mirroring buildBuffer.take. Reports full coverage.
func (s *scanScratch) take(l [][]int, i topology.NodeID, dst *affinity.SparseAlloc) bool {
	taken, left := 0, 0
	li := l[i]
	for j, need := range s.resid {
		if need > 0 {
			k := li[j]
			if k > need {
				k = need
			}
			if k > 0 {
				s.resid[j] = need - k
				if dst != nil {
					dst.Add(i, model.VMTypeID(j), k)
				}
				taken += k
			}
			left += need - k
		}
	}
	if taken > 0 {
		s.credit(i, taken)
	}
	return left == 0
}

// beyond reports whether outer holds more than inner of some type the
// residual still needs, where outer counts the capacity of a set of nodes
// and inner that of a subset: whether the nodes outside the subset can
// supply anything.
func (s *scanScratch) beyond(outer, inner []int) bool {
	for j, need := range s.resid {
		if need > 0 && outer[j] > inner[j] {
			return true
		}
	}
	return false
}

// supplyOf is Σ_j min(L_ij, residual_j).
func (s *scanScratch) supplyOf(li []int) int {
	v := 0
	for j, need := range s.resid {
		if k := li[j]; k < need {
			v += k
		} else {
			v += need
		}
	}
	return v
}

// buildSim replays Algorithm 1's greedy fill around center into the
// tallies (and dst when non-nil): center first, rack peers by
// descending supply then ID, then remote nodes bucketed by distance
// tier with all supplies keyed to the residual as the remote phase
// began — the exact take order of buildBuffer.buildAround, the
// Exhaustive reference. rackOnly stops after the rack phase (the
// caller only needs the in-rack load profile). Reports whether the
// residual was fully covered.
func (s *scanScratch) buildSim(idx *affinity.TierIndex, r model.Request, center topology.NodeID, dst *affinity.SparseAlloc, rackOnly bool) bool {
	s.resetTallies()
	s.resid = append(s.resid[:0], r...)
	return s.fillFrom(idx, center, dst, rackOnly)
}

// buildFull runs the full build around center into the caller's dst,
// reset first, and records center as built when it covers r. A finite
// M makes it one of the sweep's test builds, which reports false as soon
// as reachable proves its DC exceeds M, and reads the caps scanBound
// recorded for r.
func (s *scanScratch) buildFull(idx *affinity.TierIndex, r model.Request, center topology.NodeID, M float64) bool {
	s.dst.Reset(s.t.Nodes(), s.m)
	s.bound = M
	ok := s.buildSim(idx, r, center, s.dst, false)
	s.bound = math.Inf(1)
	if !ok {
		return false
	}
	s.built = center
	return true
}

// reachable reports whether some hosting node of the bounded build in
// progress may still price at or below s.bound. A fresh build takes each
// node at most once and has rem = T − total VMs left to place, so each
// node still to be taken loads at most min(rem, W*). A touched rack
// therefore ends with max load ≤ max(load, min(rem, W*)), rack take ≤
// min(take+rem, rackTot) and cloud take ≤ min(cloudTake+rem, cloudTot);
// the untouched racks of a touched cloud with at most min(rem, W*),
// min(rem, R*) and min(cloudTake+rem, cloudTot); the untouched clouds
// with at most min(rem, W*), min(rem, R*) and rem. TierSum of those caps
// floors the best price in each group. No cap rises as the build goes
// on, so a floor once above the bound stays there: the check resumes
// after the floors already proven dead and returns at the first one
// that is not, paying O(1) per call on a build that can still reach.
func (s *scanScratch) reachable(idx *affinity.TierIndex) bool {
	t := s.t
	d := t.Distances()
	T := s.reqT
	rem := T - s.total
	w, rk := min(rem, s.wStar), min(rem, s.rStar)
	if !s.deadFar && len(s.tclouds) < t.Clouds() {
		if affinity.TierSum(d, w, rk, rem, T) <= s.bound {
			return true
		}
		s.deadFar = true
	}
	for ; s.deadClouds < len(s.tclouds); s.deadClouds++ {
		c := s.tclouds[s.deadClouds]
		if affinity.TierSum(d, w, rk, min(s.cloudTake[c]+rem, s.cloudCap[c]), T) <= s.bound {
			return true
		}
	}
	for ; s.deadRacks < len(s.touched); s.deadRacks++ {
		rho := s.touched[s.deadRacks]
		c := t.CloudOfRack(rho)
		if affinity.TierSum(d, max(s.rackMaxW[rho], w), min(s.rackTake[rho]+rem, s.rackCapOf(idx, rho)),
			min(s.cloudTake[c]+rem, s.cloudCap[c]), T) <= s.bound {
			return true
		}
	}
	return false
}

// fillFrom runs the greedy fill of the current residual around center on
// top of whatever the tallies already hold — nothing for buildSim, the
// existing cluster for placeDeltaCore, whose merged profile the fill
// then extends.
func (s *scanScratch) fillFrom(idx *affinity.TierIndex, center topology.NodeID, dst *affinity.SparseAlloc, rackOnly bool) bool {
	t := s.t
	l := idx.Matrix()
	if s.take(l, center, dst) {
		return true
	}
	// Rack phase: peers in the node heap's order, supplies keyed to the
	// residual the center left. A zero-supply peer would take nothing, so
	// only positive ones enter the heap, and a peer is popped only while
	// the residual lasts. When the center holds all its rack has of every
	// type still needed, every peer's supply is zero and the phase is
	// skipped.
	cRack := t.RackOf(center)
	rackRemain := idx.RackRemain(cRack)
	if s.beyond(rackRemain, l[center]) {
		sup := s.sup()
		s.peers = s.peers[:0]
		for _, id := range t.RackNodes(cRack) {
			if id == center {
				continue
			}
			if v := s.supplyOf(l[id]); v > 0 {
				sup[id] = v
				s.peers = append(s.peers, id)
			}
		}
		for root := len(s.peers)/2 - 1; root >= 0; root-- {
			s.siftNode(s.peers, root)
		}
		for len(s.peers) > 0 {
			if s.take(l, s.popNode(&s.peers), dst) {
				return true
			}
		}
	}
	if rackOnly {
		return false
	}
	// Remote phase. All candidate supplies are keyed to the residual as
	// this phase begins (buildAround computes every supply before the
	// first remote take), so snapshot it and drain the distance buckets
	// lazily: racks (same cloud) or clouds (far) enter a bucket with a
	// supply upper bound from the index and are only expanded, a cloud to
	// its racks and a rack to exact per-node supplies, when that bound
	// could beat the best opened node. The same-cloud bucket drains
	// first: Distances.Validate guarantees CrossRack < CrossCloud. When
	// the center's rack holds all its cloud has of every type still
	// needed, every other rack of the cloud bounds at zero, the bucket is
	// empty, and it is skipped.
	s.resid0 = append(s.resid0[:0], s.resid...)
	cCloud := t.CloudOf(center)
	if s.beyond(idx.CloudRemain(cCloud), rackRemain) {
		if s.gatherNear(idx, cCloud, cRack); s.drainBucket(idx, l, dst) {
			return true
		}
		if s.aborted {
			return false
		}
	}
	if s.gatherFar(idx, cCloud); s.drainBucket(idx, l, dst) {
		return true
	}
	for _, need := range s.resid {
		if need > 0 {
			return false
		}
	}
	return true
}

// gatherNear loads the same-cloud bucket (minus the center's rack) into
// the container heap as racks; gatherFar loads every other cloud as one
// container. Bounds key to resid0, so a container with ub == 0 holds
// only zero-supply nodes — the greedy never takes from those, so
// dropping them leaves the take sequence unchanged.
func (s *scanScratch) gatherNear(idx *affinity.TierIndex, cCloud, cRack int) {
	s.ctHeap = s.ctHeap[:0]
	for _, rho := range s.t.CloudRacks(cCloud) {
		if rho != cRack {
			s.pushRackUb(idx, rho)
		}
	}
}

// gatherFar bounds each other cloud's node supplies by Σ_j
// min(CloudMaxCol_j, resid0_j), clamped by its largest node total.
func (s *scanScratch) gatherFar(idx *affinity.TierIndex, cCloud int) {
	s.ctHeap = s.ctHeap[:0]
	for c := 0; c < s.t.Clouds(); c++ {
		if c == cCloud {
			continue
		}
		mc := idx.CloudMaxCol(c)
		ub := 0
		for j, need := range s.resid0 {
			ub += min(mc[j], need)
		}
		s.pushCt(s.t.Racks()+c, min(ub, idx.CloudMaxNodeTotal(c)))
	}
}

// pushRackUb adds rho to the container heap with its supply upper bound
// Σ_j min(RackMaxCol_j, resid0_j), clamped by its largest node total.
func (s *scanScratch) pushRackUb(idx *affinity.TierIndex, rho int) {
	mc := idx.RackMaxCol(rho)
	ub := 0
	for j, need := range s.resid0 {
		ub += min(mc[j], need)
	}
	s.pushCt(rho, min(ub, idx.RackMaxTotal(rho)))
}

// drainBucket takes from the gathered containers in exactly the order
// the eager scan's global sort produces — supply descending, node ID
// ascending, supplies keyed to resid0. The heap's first container says
// what comes next. An opened rack's key is its best untaken node, which
// is taken; the rack then zeroes that node's supply and re-keys itself
// by its next best node, or leaves the heap when none supplies anything.
// An unopened container (cloud or rack) that comes first is opened:
// each of its nodes has supply ≤ ub, or ties ub with an ID above its
// lowest node (ctLow), so a node sorting before the container's key can
// only lie in an opened rack, which would then have come first. A cloud
// opens into its racks, a rack into its nodes' supplies. Reports
// whether the residual reached zero. A bounded build checks reachable
// before each container it opens and stops, setting aborted, once the
// check fails.
func (s *scanScratch) drainBucket(idx *affinity.TierIndex, l [][]int, dst *affinity.SparseAlloc) bool {
	sup := s.sup()
	nr := s.t.Racks()
	opened := nr + s.t.Clouds()
	bounded := !math.IsInf(s.bound, 1)
	for len(s.ctHeap) > 0 {
		top := s.ctHeap[0]
		if top >= opened {
			id := s.ctLow[top]
			if s.take(l, id, dst) {
				return true
			}
			sup[id] = 0
			if s.cursor(top) {
				s.siftCt(0)
			} else {
				s.popCt()
			}
			continue
		}
		if bounded && !s.reachable(idx) {
			s.aborted = true
			return false
		}
		s.popCt()
		if top >= nr {
			for _, rho := range s.t.CloudRacks(top - nr) {
				s.pushRackUb(idx, rho)
			}
			continue
		}
		for _, id := range s.t.RackNodes(top) {
			sup[id] = s.supply0(l[id])
		}
		if k := opened + top; s.cursor(k) {
			s.pushCt(k, s.ctUb[k])
		}
	}
	return false
}

// cursor keys opened rack k (Racks()+Clouds()+ρ) by its best untaken
// node: the largest supply, then the lowest ID. It reports false when no
// node of the rack supplies anything.
func (s *scanScratch) cursor(k int) bool {
	sup := s.nodeSup
	best := topology.NodeID(-1)
	bv := 0
	for _, id := range s.t.RackNodes(k - s.t.Racks() - s.t.Clouds()) {
		if sup[id] > bv {
			best, bv = id, sup[id]
		}
	}
	s.ctUb[k], s.ctLow[k] = bv, best
	return bv > 0
}

// supply0 is Σ_j min(L_ij, resid0_j) — supplyOf against the remote
// phase's residual snapshot.
func (s *scanScratch) supply0(li []int) int {
	v := 0
	for j, need := range s.resid0 {
		if k := li[j]; k < need {
			v += k
		} else {
			v += need
		}
	}
	return v
}

// ctBefore orders the container heap: supply bound descending, ties by
// ascending lowest node ID (so a tied container that could still supply
// a lower-ID node is opened before that node is taken).
func (s *scanScratch) ctBefore(a, b int) bool {
	if s.ctUb[a] != s.ctUb[b] {
		return s.ctUb[a] > s.ctUb[b]
	}
	return s.ctLow[a] < s.ctLow[b]
}

// pushCt adds container k with bound ub to the heap unless ub is zero.
func (s *scanScratch) pushCt(k, ub int) {
	if ub <= 0 {
		return
	}
	s.ctUb[k] = ub
	s.ctHeap = append(s.ctHeap, k)
	h := s.ctHeap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.ctBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (s *scanScratch) popCt() {
	h := s.ctHeap
	last := len(h) - 1
	h[0] = h[last]
	s.ctHeap = h[:last]
	s.siftCt(0)
}

// siftCt restores the container-heap order below root.
func (s *scanScratch) siftCt(root int) {
	h := s.ctHeap
	n := len(h)
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && s.ctBefore(h[c+1], h[c]) {
			c++
		}
		if !s.ctBefore(h[c], h[root]) {
			return
		}
		h[root], h[c] = h[c], h[root]
		root = c
	}
}

// nodeBefore orders the rack phase's node heap: exact supply descending,
// ties by ascending node ID — the strict total order of
// buildBuffer.bySupply.
func (s *scanScratch) nodeBefore(a, b topology.NodeID) bool {
	if s.nodeSup[a] != s.nodeSup[b] {
		return s.nodeSup[a] > s.nodeSup[b]
	}
	return a < b
}

// siftNode restores the node-heap order below root.
func (s *scanScratch) siftNode(h []topology.NodeID, root int) {
	n := len(h)
	for {
		c := 2*root + 1
		if c >= n {
			return
		}
		if c+1 < n && s.nodeBefore(h[c+1], h[c]) {
			c++
		}
		if !s.nodeBefore(h[c], h[root]) {
			return
		}
		h[root], h[c] = h[c], h[root]
		root = c
	}
}

// popNode removes and returns the first node of the heap *hp.
func (s *scanScratch) popNode(hp *[]topology.NodeID) topology.NodeID {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*hp = h[:last]
	s.siftNode(h[:last], 0)
	return top
}

// score prices the current tallies to the DC and center
// affinity.DistanceOf returns: per touched rack its max-loaded (lowest-ID)
// node, the rack's cheapest host, then the minimum across racks with ties
// toward the lowest node ID.
func (s *scanScratch) score(t *topology.Topology, d topology.Distances, total int) (float64, topology.NodeID) {
	best := math.Inf(1)
	bestK := topology.NodeID(-1)
	for _, rr := range s.touched {
		sv := affinity.TierSum(d, s.rackMaxW[rr], s.rackTake[rr], s.cloudTake[t.CloudOfRack(rr)], total)
		if sv < best || (sv == best && s.rackBest[rr] < bestK) {
			best, bestK = sv, s.rackBest[rr]
		}
	}
	return best, bestK
}
