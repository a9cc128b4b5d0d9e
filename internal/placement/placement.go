// Package placement implements the paper's two provisioning algorithms —
// the online heuristic VM placement (Algorithm 1) and the global
// sub-optimization over a batch of requests (Algorithm 2) — together with
// the baseline placers used in the evaluation.
//
// All placers consume a read-only snapshot of the remaining-capacity
// matrix L and produce an allocation matrix C; committing C to the live
// inventory is the caller's job (see package inventory). Algorithm 1's
// placers and GlobalSubOpt keep their working state from one call to
// the next, so each serves one caller at a time.
package placement

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/topology"
)

// ErrInsufficient is returned when the request exceeds the available
// resources (the paper's admission test R_j ≤ A_j fails).
var ErrInsufficient = errors.New("placement: request exceeds available resources")

// Placer turns one request into one allocation against a capacity snapshot.
type Placer interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Place computes an allocation for r on topology t given remaining
	// capacities l. It must not mutate l.
	Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error)
}

// admit implements the paper's first check, every R_j ≤ A_j, against a
// fresh scan of L — the one-shot form every dense placer runs. A matrix
// that is not n×len(r) on t, that holds a negative cell, or whose cells
// sum past int (model.AddCapacity) is malformed input; that error does
// not wrap ErrInsufficient, so callers treat it as a hard error rather
// than as "does not fit".
func admit(t *topology.Topology, l [][]int, r model.Request) error {
	if len(l) != t.Nodes() {
		return fmt.Errorf("placement: capacity matrix has %d rows, topology has %d nodes", len(l), t.Nodes())
	}
	avail := make([]int, len(r))
	total := 0
	for i, row := range l {
		if len(row) != len(r) {
			return fmt.Errorf("placement: capacity row %d has %d types, request has %d", i, len(row), len(r))
		}
		for j, c := range row {
			if c < 0 {
				return fmt.Errorf("placement: node %d has negative capacity %d of type %d", i, c, j)
			}
			var err error
			if total, err = model.AddCapacity(total, c); err != nil {
				return fmt.Errorf("placement: node %d capacity %d of type %d: %w", i, c, j, err)
			}
			avail[j] += c
		}
	}
	return admitAvail(avail, r)
}

// admitAvail is admit against precomputed column totals — a tier
// index's availability vector, kept across requests instead of
// rescanning the full L matrix per admission. A negative demand is
// malformed input, refused with an error that does not wrap
// ErrInsufficient wherever it sits in r.
func admitAvail(avail []int, r model.Request) error {
	for j, v := range r {
		if v < 0 {
			return fmt.Errorf("placement: request has negative demand %d of type %d", v, j)
		}
	}
	for j := range r {
		if r[j] > avail[j] {
			return &shortfall{typ: j, need: r[j], avail: avail[j]}
		}
	}
	return nil
}

// shortfall is admitAvail's ErrInsufficient. Its message is formatted
// only if someone reads it.
type shortfall struct {
	typ, need, avail int
}

func (e *shortfall) Error() string {
	return fmt.Sprintf("%v: type %d needs %d, %d available", ErrInsufficient, e.typ, e.need, e.avail)
}

func (e *shortfall) Unwrap() error { return ErrInsufficient }

// OnlineHeuristic is the paper's Algorithm 1: greedy placement around a
// central node, packing the center first, then its rack peers in
// descending supply order, then remote nodes. It runs the tier-aggregated
// center scan (tierscan.go), which prices every rack's best build from a
// tier index and builds only inside the racks that can hold the winner;
// Exhaustive is the paper's literal every-node scan, kept as its oracle.
//
// A placer keeps its working state from one call to the next, so it
// serves one caller at a time.
type OnlineHeuristic struct {
	// Obs, when non-nil, receives placement metrics (call counts, fast-path
	// hits, DC of returned allocations). Handles are resolved once on first
	// Place; a nil Obs leaves the hot path with nil-receiver no-ops.
	Obs *obs.Registry

	obsOnce sync.Once
	metrics placerMetrics

	// scan is the scan's scratch, rebuilt when a call's topology or type
	// count differs from the last call's.
	scan *scanScratch
	// dense is the transient tier index dense Place rebinds over its
	// caller's capacity matrix, rebuilt like scan; denseSp stages its
	// sparse result.
	dense   *affinity.TierIndex
	denseSp affinity.SparseAlloc
	// release is the shrink's scratch, which fits every shape.
	release releaseScratch
}

// denseIndex returns the placer's transient index bound to l, which
// must have a row per node of t. The index refuses a ragged matrix, a
// negative cell and cells that sum past int.
func (h *OnlineHeuristic) denseIndex(t *topology.Topology, l [][]int) (*affinity.TierIndex, error) {
	if len(l) != t.Nodes() {
		return nil, fmt.Errorf("placement: capacity matrix has %d rows, topology has %d nodes", len(l), t.Nodes())
	}
	if h.dense != nil && h.dense.Topology() == t && h.dense.Types() == len(l[0]) {
		return h.dense, h.dense.Rebind(l)
	}
	idx, err := affinity.NewTierIndex(t, l)
	if err != nil {
		return nil, err
	}
	h.dense = idx
	return idx, nil
}

// placerMetrics are the resolved obs handles of a placer. The zero value
// (all nil) is fully usable: every method is a nil-receiver no-op.
type placerMetrics struct {
	calls      *obs.Counter
	infeasible *obs.Counter
	fastPath   *obs.Counter
	dc         *obs.Histogram
}

func (h *OnlineHeuristic) obsHandles() *placerMetrics {
	h.obsOnce.Do(func() {
		if h.Obs == nil {
			return
		}
		h.metrics = placerMetrics{
			calls:      h.Obs.Counter("placement.place_calls"),
			infeasible: h.Obs.Counter("placement.infeasible"),
			fastPath:   h.Obs.Counter("placement.fastpath_hits"),
			dc:         h.Obs.Histogram("placement.dc", 0, 200, 20),
		}
	})
	return &h.metrics
}

// Name implements Placer.
func (h *OnlineHeuristic) Name() string { return "online-heuristic" }

// Place implements Placer with the paper's Algorithm 1: PlaceSparse over
// a transient index bound to l. cloudsim and the service keep persistent
// indexes and call PlaceSparse directly.
func (h *OnlineHeuristic) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	idx, err := h.denseIndex(t, l)
	if err != nil {
		return nil, err
	}
	if _, _, err := h.PlaceSparse(idx, r, &h.denseSp); err != nil {
		return nil, err
	}
	return h.denseSp.ToDense(), nil
}

// Exhaustive is the paper's literal Algorithm 1 scan over a dense build
// buffer: the lowest-ID node covering R outright (lines 9–14), else a
// build around every node as the center, ascending ID, keeping the first
// strict improvement. It places exactly as OnlineHeuristic at O(n)
// builds per request, which makes it the oracle of the scan's tests and
// the baseline arm of the scale benchmarks. It has no PlaceSparse, so it
// cannot drive cloudsim or the service. It keeps its build buffer from
// one call to the next, so it serves one caller at a time.
type Exhaustive struct {
	buf *buildBuffer
}

// Name implements Placer.
func (*Exhaustive) Name() string { return "online-heuristic/exhaustive" }

// Place implements Placer.
func (p *Exhaustive) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	if err := admit(t, l, r); err != nil {
		return nil, err
	}
	n, m := t.Nodes(), len(r)
	for i := 0; i < n; i++ {
		if model.Covers(l[i], r) {
			alloc := affinity.NewAllocation(n, m)
			copy(alloc[i], r)
			return alloc, nil
		}
	}
	if p.buf == nil || p.buf.n != n || p.buf.m != m {
		p.buf = newBuildBuffer(n, m)
	}
	buf := p.buf
	var (
		best     affinity.Allocation
		bestDist float64
	)
	for i := 0; i < n; i++ {
		if buf.buildAround(t, l, r, topology.NodeID(i)) {
			d, _ := buf.dist.DistanceOf(t, buf.hosts, buf.w)
			if best == nil || d < bestDist {
				// The buffer is reused across centers; only a new incumbent
				// is materialized.
				best, bestDist = buf.alloc.Clone(), d
			}
		}
		buf.reset()
	}
	if best == nil {
		// Admission held, so aggregate capacity suffices; every center can
		// reach every node, so construction cannot fail.
		return nil, fmt.Errorf("placement: internal error — no allocation built for feasible request %v", r)
	}
	return best, nil
}

// buildBuffer holds the scratch state of the Exhaustive scan so a
// single allocation matrix, weight vector, candidate lists and distance
// tallies are reused across all candidate centers — the scan itself
// allocates nothing per center.
type buildBuffer struct {
	n, m     int // shape
	alloc    affinity.Allocation
	w        []int             // per-node VM totals of the current build
	hosts    []topology.NodeID // take-order hosting nodes
	supply   []int             // per-node supply of the current residual
	residual model.Request
	cand     []topology.NodeID // near candidate scratch (peers / same cloud)
	cand2    []topology.NodeID // far candidate scratch (cross cloud)
	dist     affinity.DistanceScratch
}

func newBuildBuffer(n, m int) *buildBuffer {
	return &buildBuffer{
		n:      n,
		m:      m,
		alloc:  affinity.NewAllocation(n, m),
		w:      make([]int, n),
		hosts:  make([]topology.NodeID, 0, 8),
		supply: make([]int, n),
		cand:   make([]topology.NodeID, 0, n),
		cand2:  make([]topology.NodeID, 0, n),
	}
}

// reset clears only the cells the last build touched.
func (b *buildBuffer) reset() {
	for _, i := range b.hosts {
		row := b.alloc[i]
		for j := range row {
			row[j] = 0
		}
		b.w[i] = 0
	}
	b.hosts = b.hosts[:0]
}

// take grabs com(L[i], residual) into the build. Reports whether the
// residual is fully covered.
func (b *buildBuffer) take(l [][]int, i topology.NodeID) bool {
	taken := 0
	left := 0
	li := l[i]
	ai := b.alloc[i]
	for j, need := range b.residual {
		if need > 0 {
			k := li[j]
			if k > need {
				k = need
			}
			ai[j] += k
			b.residual[j] = need - k
			taken += k
			left += need - k
		}
	}
	if taken > 0 {
		if b.w[i] == 0 {
			b.hosts = append(b.hosts, i)
		}
		b.w[i] += taken
	}
	return left == 0
}

// supplyOf is Σ_j min(L[i][j], residual[j]) without materializing the
// com vector.
func (b *buildBuffer) supplyOf(li []int) int {
	s := 0
	for j, need := range b.residual {
		if k := li[j]; k < need {
			s += k
		} else {
			s += need
		}
	}
	return s
}

// bySupply orders candidates by supply of the residual descending, ties
// by node ID — a strict total order, so any correct sort produces the
// same sequence the old insertion sort did.
func (b *buildBuffer) bySupply(a, c topology.NodeID) int {
	if b.supply[a] != b.supply[c] {
		return b.supply[c] - b.supply[a]
	}
	return int(a) - int(c)
}

// buildAround greedily builds an allocation centered on the given node:
// the center takes com(L[center], R); same-rack nodes follow, sorted by
// how much of the residual they can supply (descending, the paper's
// getList ordering); remote nodes close the remainder in ascending
// distance tiers, ties by descending supply then node ID. On return
// b.alloc/b.hosts/b.w describe the build; the caller must reset() before
// the next center.
func (b *buildBuffer) buildAround(t *topology.Topology, l [][]int, r model.Request, center topology.NodeID) bool {
	n := t.Nodes()
	b.residual = append(b.residual[:0], r...)

	if b.take(l, center) {
		return true
	}
	// Same rack, descending supply of the current residual; ties by ID.
	cRack := t.RackOf(center)
	b.cand = b.cand[:0]
	for _, id := range t.RackNodes(cRack) {
		if id != center {
			b.cand = append(b.cand, id)
			b.supply[id] = b.supplyOf(l[id])
		}
	}
	slices.SortFunc(b.cand, b.bySupply)
	for _, i := range b.cand {
		if b.take(l, i) {
			return true
		}
	}
	// Remote nodes close the remainder in ascending distance tiers. The
	// center's distance row takes only two values outside its rack —
	// CrossRack inside its cloud, CrossCloud beyond — so instead of
	// comparison-sorting all n−|rack| hosts the candidates are bucketed by
	// tier and each bucket sorted alone (supply desc, then ID). Supplies
	// for BOTH buckets are computed before any take so every sort key
	// reflects the residual as it stood when the remote phase began,
	// exactly as the single-list sort saw it; only the far bucket's sort
	// is skipped when the near one covers the residual.
	cCloud := t.CloudOf(center)
	b.cand = b.cand[:0]
	b.cand2 = b.cand2[:0]
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if t.RackOf(id) == cRack {
			continue
		}
		b.supply[id] = b.supplyOf(l[id])
		if t.CloudOf(id) == cCloud {
			b.cand = append(b.cand, id)
		} else {
			b.cand2 = append(b.cand2, id)
		}
	}
	// Distances.Validate guarantees CrossRack < CrossCloud, so the
	// same-cloud bucket always comes first.
	slices.SortFunc(b.cand, b.bySupply)
	for _, i := range b.cand {
		if b.take(l, i) {
			return true
		}
	}
	slices.SortFunc(b.cand2, b.bySupply)
	for _, i := range b.cand2 {
		if b.take(l, i) {
			return true
		}
	}
	left := 0
	for _, need := range b.residual {
		left += need
	}
	return left == 0
}

// BatchResult is the outcome of placing a batch of requests.
type BatchResult struct {
	Allocs []affinity.Allocation // nil entry: request could not be placed
	Total  float64               // Σ DC over placed requests
	Failed int                   // requests that could not be placed
	Swaps  int                   // improving Theorem-2 exchanges applied
	Passes int                   // local-search sweeps executed
}

// GlobalSubOpt is the paper's Algorithm 2: place every admitted request
// with the online heuristic, then run a Theorem-2 exchange local search
// across allocation pairs to shrink the summed distance. It keeps its
// step-2 placer from one batch to the next, so it serves one caller at a
// time.
type GlobalSubOpt struct {
	// MaxPasses caps local-search sweeps (0 = run to fixpoint, at most 64
	// passes). Figs 5/6, cloudsim's batch mode and examples/batchqueue run
	// to fixpoint; MaxPasses 1 is the paper's single pass, which tests and
	// BenchmarkAblationTransferFixpoint run.
	MaxPasses int
	// Obs, when non-nil, receives batch metrics, and step 2's
	// OnlineHeuristic receives its placement metrics.
	Obs *obs.Registry

	obsOnce sync.Once
	metrics batchMetrics
	online  *OnlineHeuristic // step 2's placer, built on the first batch
}

// batchMetrics are the resolved obs handles of the batch placer; the zero
// value is a usable no-op.
type batchMetrics struct {
	batches *obs.Counter
	failed  *obs.Counter
	swaps   *obs.Counter
	passes  *obs.Counter
}

func (g *GlobalSubOpt) obsHandles() *batchMetrics {
	g.obsOnce.Do(func() {
		if g.Obs == nil {
			return
		}
		g.metrics = batchMetrics{
			batches: g.Obs.Counter("placement.batches"),
			failed:  g.Obs.Counter("placement.batch_failed"),
			swaps:   g.Obs.Counter("placement.batch_swaps"),
			passes:  g.Obs.Counter("placement.batch_passes"),
		}
	})
	return &g.metrics
}

// Name identifies the strategy.
func (g *GlobalSubOpt) Name() string { return "global-subopt" }

// PlaceBatch provisions the whole batch against the shared capacity
// snapshot l (not mutated). Requests that no longer fit as capacity
// depletes get a nil allocation and count in Failed.
func (g *GlobalSubOpt) PlaceBatch(t *topology.Topology, l [][]int, reqs []model.Request) (*BatchResult, error) {
	// Step 2: Algorithm 1 on each request in turn, depleting a working
	// copy of the capacity.
	if g.online == nil {
		g.online = &OnlineHeuristic{Obs: g.Obs}
	}
	res, work, err := placeSequential(t, l, reqs, g.online)
	if err != nil {
		return nil, err
	}

	g.exchange(t, res, work, true)
	om := g.obsHandles()
	om.batches.Inc()
	om.failed.Add(int64(res.Failed))
	om.swaps.Add(int64(res.Swaps))
	om.passes.Add(int64(res.Passes))
	return res, nil
}

// exchange is step 3, the Theorem-2 exchange local search over res's
// placed clusters, with residual the capacity they leave free. Two
// exchange kinds keep per-node-per-type occupancy feasible:
//
//	swap — clusters a and b trade one VM of the same type across two
//	       nodes (capacity neutral);
//	move — cluster a shifts one VM into residual capacity.
//
// One incremental evaluator per placed cluster carries DC(C) across all
// passes; candidate exchanges are priced through O(hosts) previews and
// allocations are only touched on accept. It counts res.Swaps and
// res.Passes and sets res.Total to the clusters' summed DC.
//
// online reports that res is step 2's output. Algorithm 1 is exact and
// each later request only takes capacity away, so every target free
// after step 2 was free when its cluster was placed, and a relocated
// cluster is one Algorithm 1 could have returned: the first relocation
// pass moves nothing (TestFirstRelocationPassIsIdle), and pass 1 starts
// with the swaps.
func (g *GlobalSubOpt) exchange(t *topology.Topology, res *BatchResult, residual [][]int, online bool) {
	evs := make([]*affinity.DistanceEvaluator, len(res.Allocs))
	for qi, a := range res.Allocs {
		if a != nil {
			evs[qi] = affinity.NewDistanceEvaluator(t, a)
		}
	}
	maxPasses := g.MaxPasses
	hardCap := 64 // fixpoint safety net; each pass monotonically improves
	if maxPasses <= 0 || maxPasses > hardCap {
		maxPasses = hardCap
	}
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		if pass > 0 || !online {
			improved = relocatePass(t, res.Allocs, evs, residual)
		}
		if swapPass(res, evs, residual) {
			improved = true
		}
		res.Passes++
		if !improved {
			break
		}
	}

	res.Total = 0
	for _, ev := range evs {
		if ev != nil {
			d, _ := ev.Distance()
			res.Total += d
		}
	}
}

// relocatePass moves single VMs into the residual capacity, taking the
// first relocation of each cluster's walk that strictly lowers its DC.
// A target no closer to the current center than the VM's node is
// screened out before pricing (Theorem 1). Returns true if anything
// moved.
func relocatePass(t *topology.Topology, allocs []affinity.Allocation, evs []*affinity.DistanceEvaluator, residual [][]int) bool {
	improvedAny := false
	for qi, a := range allocs {
		if a == nil {
			continue
		}
		ev := evs[qi]
		d0, center := ev.Distance()
		affinity.Relocations(a, ev, residual, func(from topology.NodeID, vt model.VMTypeID, to topology.NodeID) {
			if affinity.MoveDelta(t, center, from, to) >= 0 {
				return
			}
			if d1, c1 := ev.MovePreview(from, to); d1 < d0-1e-12 {
				affinity.MoveVM(a, ev, residual, vt, from, to)
				d0, center = d1, c1
				improvedAny = true
			}
		})
	}
	return improvedAny
}

// swapPass applies Theorem 2 across cluster pairs with distinct centers:
// trading one same-type VM between two nodes is capacity neutral and is
// kept whenever it shrinks DC(a)+DC(b). After each trade the pair's walk
// starts over, until no trade improves it.
func swapPass(res *BatchResult, evs []*affinity.DistanceEvaluator, residual [][]int) bool {
	improvedAny := false
	allocs := res.Allocs
	for ai, a := range allocs {
		if a == nil {
			continue
		}
		for bi := ai + 1; bi < len(allocs); bi++ {
			b := allocs[bi]
			if b == nil {
				continue
			}
			evA, evB := evs[ai], evs[bi]
			da, ca := evA.Distance()
			db, cb := evB.Distance()
			if ca == cb {
				continue // Theorem 2 precondition: distinct centers
			}
			sum0 := da + db
			trade := func(p, q topology.NodeID, vt model.VMTypeID) bool {
				// Trade: a's VM p→q, b's VM q→p.
				da1, _ := evA.MovePreview(p, q)
				db1, _ := evB.MovePreview(q, p)
				if da1+db1 >= sum0-1e-12 {
					return false
				}
				affinity.MoveVM(a, evA, residual, vt, p, q)
				affinity.MoveVM(b, evB, residual, vt, q, p)
				sum0 = da1 + db1
				return true
			}
			traded := false
			for affinity.Swaps(a, b, evA, evB, trade) {
				traded = true
			}
			if traded {
				res.Swaps++
				improvedAny = true
			}
		}
	}
	return improvedAny
}

// PlaceSequential places a batch with any single-request placer, depleting
// capacity between requests — the "online" arm of Figs. 5 and 6.
func PlaceSequential(t *topology.Topology, l [][]int, reqs []model.Request, p Placer) (*BatchResult, error) {
	res, _, err := placeSequential(t, l, reqs, p)
	return res, err
}

// placeSequential is PlaceSequential that also returns the depleted
// working copy of l, the residual capacity Algorithm 2's exchange step
// moves VMs into.
func placeSequential(t *topology.Topology, l [][]int, reqs []model.Request, p Placer) (*BatchResult, [][]int, error) {
	if len(l) != t.Nodes() {
		return nil, nil, fmt.Errorf("placement: capacity matrix has %d rows, topology has %d nodes", len(l), t.Nodes())
	}
	work := cloneMatrix(l)
	res := &BatchResult{Allocs: make([]affinity.Allocation, len(reqs))}
	for qi, r := range reqs {
		alloc, err := p.Place(t, work, r)
		if err != nil {
			if errors.Is(err, ErrInsufficient) {
				res.Failed++
				continue
			}
			return nil, nil, err
		}
		res.Allocs[qi] = alloc
		d, _ := alloc.Distance(t)
		res.Total += d
		for i := range alloc {
			for j, k := range alloc[i] {
				work[i][j] -= k
			}
		}
	}
	return res, work, nil
}

func cloneMatrix(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i := range src {
		out[i] = append([]int(nil), src[i]...)
	}
	return out
}
