// Package placement implements the paper's two provisioning algorithms —
// the online heuristic VM placement (Algorithm 1) and the global
// sub-optimization over a batch of requests (Algorithm 2) — together with
// the baseline placers used in the evaluation.
//
// All placers consume a read-only snapshot of the remaining-capacity
// matrix L and produce an allocation matrix C; committing C to the live
// inventory is the caller's job (see package inventory).
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
// that is not n×len(r) on t, or that holds a negative cell, is malformed
// input; that error does not wrap ErrInsufficient, so callers treat it
// as a hard error rather than as "does not fit".
func admit(t *topology.Topology, l [][]int, r model.Request) error {
	if len(l) != t.Nodes() {
		return fmt.Errorf("placement: capacity matrix has %d rows, topology has %d nodes", len(l), t.Nodes())
	}
	avail := make([]int, len(r))
	for i, row := range l {
		if len(row) != len(r) {
			return fmt.Errorf("placement: capacity row %d has %d types, request has %d", i, len(row), len(r))
		}
		for j, c := range row {
			if c < 0 {
				return fmt.Errorf("placement: node %d has negative capacity %d of type %d", i, c, j)
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

// shortfall is admitAvail's ErrInsufficient. Deferred grows hit it on
// every retry against a full plant, so the message is only formatted if
// someone reads it.
type shortfall struct {
	typ, need, avail int
}

func (e *shortfall) Error() string {
	return fmt.Sprintf("%v: type %d needs %d, %d available", ErrInsufficient, e.typ, e.need, e.avail)
}

func (e *shortfall) Unwrap() error { return ErrInsufficient }

// Shortfall reports what an admission failure lacked: the first
// resource type whose demand need exceeded the avail VMs free. ok is
// false unless err is admission's ErrInsufficient exactly as PlaceSparse
// and PlaceDeltaSparse return it, unwrapped. It allocates nothing, so a
// caller may log every failed retry.
func Shortfall(err error) (typ, need, avail int, ok bool) {
	e, ok := err.(*shortfall) // not errors.As: it would allocate the target
	if !ok {
		return 0, 0, 0, false
	}
	return e.typ, e.need, e.avail, true
}

// CenterPolicy selects how Algorithm 1 picks candidate central nodes.
type CenterPolicy int

const (
	// ScanAllCenters keeps the best allocation over every candidate center,
	// strictly dominating results. Since the build around any center in a
	// rack shares its per-rack tier profile with every other center of that
	// rack, the scan probes one representative center per rack (the
	// max-capacity node) and only re-builds inside racks that tie the best
	// DC — O(racks) builds instead of the paper's O(n), with bit-identical
	// output to ExhaustiveCenters including the lowest-ID tie-break.
	ScanAllCenters CenterPolicy = iota
	// ExhaustiveCenters is the pre-pruning reference scan: every node is
	// tried as the center, ascending ID, first strict improvement kept.
	// It exists as the equivalence oracle for ScanAllCenters and as the
	// baseline arm of the scale benchmarks; results are identical, cost is
	// O(n) builds per request.
	ExhaustiveCenters
)

// OnlineHeuristic is the paper's Algorithm 1: greedy placement around a
// central node, packing the center first, then its rack peers in
// descending supply order, then remote nodes.
type OnlineHeuristic struct {
	// Policy selects the center scan strategy; default ScanAllCenters.
	Policy CenterPolicy
	// Obs, when non-nil, receives placement metrics (call counts, fast-path
	// hits, DC of returned allocations). Handles are resolved once on first
	// Place; a nil Obs leaves the hot path with nil-receiver no-ops.
	Obs *obs.Registry

	obsOnce sync.Once
	metrics placerMetrics

	// bufPool recycles the ExhaustiveCenters buildBuffers across Place
	// calls on this placer. Buffers are keyed by the (nodes, types) shape;
	// a pooled buffer whose shape no longer matches is dropped rather than
	// resized.
	bufPool sync.Pool
	// scanPool recycles the indexed-scan scratch (see tierscan.go), keyed
	// by topology identity and type count.
	scanPool sync.Pool
	// densePool recycles the transient tier index the dense entry points
	// rebuild over their caller's capacity matrix.
	densePool sync.Pool
}

// denseScratch is a pooled transient TierIndex plus sparse staging for
// dense ScanAllCenters calls that arrive without a persistent index.
type denseScratch struct {
	idx *affinity.TierIndex
	sp  affinity.SparseAlloc
}

// getDense returns a transient index rebound over l — a pooled rebuild
// when the shape matches, a fresh index otherwise.
func (h *OnlineHeuristic) getDense(t *topology.Topology, l [][]int) (*denseScratch, error) {
	if v := h.densePool.Get(); v != nil {
		ds := v.(*denseScratch)
		if ds.idx.Topology() == t && ds.idx.Types() == len(l[0]) {
			if err := ds.idx.Rebind(l); err == nil {
				return ds, nil
			}
		}
	}
	idx, err := affinity.NewTierIndex(t, l)
	if err != nil {
		return nil, err
	}
	return &denseScratch{idx: idx}, nil
}

func (h *OnlineHeuristic) putDense(ds *denseScratch) { h.densePool.Put(ds) }

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
func (h *OnlineHeuristic) Name() string {
	if h.Policy == ExhaustiveCenters {
		return "online-heuristic/exhaustive"
	}
	return "online-heuristic"
}

// Place implements Placer with the paper's Algorithm 1. ScanAllCenters
// runs the tier-aggregated scan over a transient index rebuilt over l;
// batch drivers and the inventory keep persistent indexes and call the
// indexed core directly.
func (h *OnlineHeuristic) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	om := h.obsHandles()
	om.calls.Inc()
	if err := admit(t, l, r); err != nil {
		if errors.Is(err, ErrInsufficient) {
			om.infeasible.Inc()
		}
		return nil, err
	}
	if h.Policy == ExhaustiveCenters {
		return h.placeExhaustive(t, l, r, om)
	}
	ds, err := h.getDense(t, l)
	if err != nil {
		return nil, err
	}
	defer h.putDense(ds)
	dc, _, fast, err := h.placeSparseCore(ds.idx, r, &ds.sp)
	if err != nil {
		return nil, err
	}
	if fast {
		om.fastPath.Inc()
		om.dc.Observe(0)
	} else {
		om.dc.Observe(dc)
	}
	return ds.sp.ToDense(), nil
}

// placeExhaustive is the ExhaustiveCenters reference scan over a dense
// build buffer: the lowest-ID node covering R outright (Algorithm 1,
// lines 9–14), else a build around every node as the center, ascending
// ID, keeping the first strict improvement.
func (h *OnlineHeuristic) placeExhaustive(t *topology.Topology, l [][]int, r model.Request, om *placerMetrics) (affinity.Allocation, error) {
	n, m := t.Nodes(), len(r)
	for i := 0; i < n; i++ {
		if model.Covers(l[i], r) {
			alloc := affinity.NewAllocation(n, m)
			copy(alloc[i], r)
			om.fastPath.Inc()
			om.dc.Observe(0)
			return alloc, nil
		}
	}
	buf := h.getBuffer(n, m)
	defer h.putBuffer(buf)
	var (
		best     affinity.Allocation
		bestDist float64
	)
	for i := 0; i < n; i++ {
		if buf.buildAround(t, l, r, topology.NodeID(i)) {
			d, _ := affinity.DistanceOf(t, buf.hosts, buf.w)
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
	om.dc.Observe(bestDist)
	return best, nil
}

// buildBuffer holds the scratch state of the ExhaustiveCenters scan so a
// single allocation matrix, weight vector, and candidate lists are reused
// across all candidate centers — the scan itself allocates nothing per
// center.
type buildBuffer struct {
	n, m     int // shape, the pool key
	alloc    affinity.Allocation
	w        []int             // per-node VM totals of the current build
	hosts    []topology.NodeID // take-order hosting nodes
	supply   []int             // per-node supply of the current residual
	residual model.Request
	cand     []topology.NodeID // near candidate scratch (peers / same cloud)
	cand2    []topology.NodeID // far candidate scratch (cross cloud)
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

// getBuffer pulls a shape-matching buffer from the pool or builds one.
func (h *OnlineHeuristic) getBuffer(n, m int) *buildBuffer {
	if v := h.bufPool.Get(); v != nil {
		if b := v.(*buildBuffer); b.n == n && b.m == m {
			return b
		}
	}
	return newBuildBuffer(n, m)
}

func (h *OnlineHeuristic) putBuffer(b *buildBuffer) { h.bufPool.Put(b) }

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
// across allocation pairs to shrink the summed distance.
type GlobalSubOpt struct {
	// Online is the per-request placer of step 2; a zero-value
	// OnlineHeuristic is used when nil.
	Online *OnlineHeuristic
	// MaxPasses caps local-search sweeps (0 = run to fixpoint, bounded by
	// a safety limit). The paper performs a single pass; run-to-fixpoint
	// is the ablation variant.
	MaxPasses int
	// Obs, when non-nil, receives batch metrics (and is handed to the
	// implicit OnlineHeuristic when Online is nil).
	Obs *obs.Registry

	obsOnce sync.Once
	metrics batchMetrics
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
	online := g.Online
	if online == nil {
		online = &OnlineHeuristic{Obs: g.Obs}
	}
	n := t.Nodes()
	if len(l) != n {
		return nil, fmt.Errorf("placement: capacity matrix has %d rows, topology has %d nodes", len(l), n)
	}
	work := cloneMatrix(l)
	res := &BatchResult{Allocs: make([]affinity.Allocation, len(reqs))}

	// Step 2: sequential online placement, depleting the working capacity.
	// One tier index is maintained across the batch, so each accepted
	// allocation folds back in O(affected tiers) and admission reads the
	// index's availability vector.
	idx, err := affinity.NewTierIndex(t, work)
	if err != nil {
		return nil, err
	}
	var sp affinity.SparseAlloc
	for qi, r := range reqs {
		if _, _, err := online.placeSparseMetered(idx, r, &sp); err != nil {
			if errors.Is(err, ErrInsufficient) {
				res.Failed++
				continue
			}
			return nil, err
		}
		res.Allocs[qi] = sp.ToDense()
		for _, e := range sp.Entries {
			work[e.Node][e.Type] -= e.Count
			idx.Apply(e.Node, int(e.Type), -e.Count)
		}
	}

	// Step 3: Theorem-2 exchange local search. Two exchange kinds keep
	// per-node-per-type occupancy feasible:
	//   swap — clusters a and b trade one VM of the same type across two
	//          nodes (capacity neutral);
	//   move — cluster a shifts one VM into residual capacity.
	// One incremental evaluator per placed cluster carries DC(C) across
	// all passes; candidate exchanges are priced through O(hosts) previews
	// and allocations are only touched on accept.
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
		if g.movePass(t, res, work, evs) {
			improved = true
		}
		if g.swapPass(res, evs) {
			improved = true
		}
		res.Passes++
		if !improved {
			break
		}
		if g.MaxPasses == 1 {
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
	om := g.obsHandles()
	om.batches.Inc()
	om.failed.Add(int64(res.Failed))
	om.swaps.Add(int64(res.Swaps))
	om.passes.Add(int64(res.Passes))
	return res, nil
}

// movePass relocates single VMs into residual capacity whenever that
// strictly lowers the owning cluster's DC. Candidate moves are priced via
// MovePreview; the allocation is only mutated on accept. Returns true if
// anything moved.
func (g *GlobalSubOpt) movePass(t *topology.Topology, res *BatchResult, residual [][]int, evs []*affinity.DistanceEvaluator) bool {
	n := t.Nodes()
	improvedAny := false
	for qi, a := range res.Allocs {
		if a == nil {
			continue
		}
		ev := evs[qi]
		d0, center := ev.Distance()
		for i := 0; i < n; i++ {
			for j := range a[i] {
				if a[i][j] == 0 {
					continue
				}
				from := topology.NodeID(i)
				for q := 0; q < n; q++ {
					to := topology.NodeID(q)
					if to == from || residual[q][j] == 0 {
						continue
					}
					// Quick screen using the current center (Theorem 1).
					if affinity.MoveDelta(t, center, from, to) >= 0 {
						continue
					}
					d1, c1 := ev.MovePreview(from, to)
					if d1 < d0-1e-12 {
						a.Remove(from, model.VMTypeID(j))
						a.Add(to, model.VMTypeID(j))
						ev.Move(from, to)
						residual[i][j]++
						residual[q][j]--
						d0, center = d1, c1
						improvedAny = true
					}
					if a[i][j] == 0 {
						break
					}
				}
			}
		}
	}
	return improvedAny
}

// swapPass applies Theorem 2 across cluster pairs with distinct centers:
// trading one same-type VM between two nodes is capacity neutral and is
// kept whenever it shrinks DC(a)+DC(b).
func (g *GlobalSubOpt) swapPass(res *BatchResult, evs []*affinity.DistanceEvaluator) bool {
	improvedAny := false
	allocs := res.Allocs
	for ai := 0; ai < len(allocs); ai++ {
		a := allocs[ai]
		if a == nil {
			continue
		}
		for bi := ai + 1; bi < len(allocs); bi++ {
			b := allocs[bi]
			if b == nil {
				continue
			}
			da, ca := evs[ai].Distance()
			db, cb := evs[bi].Distance()
			if ca == cb {
				continue // Theorem 2 precondition: distinct centers
			}
			if g.swapPair(a, b, evs[ai], evs[bi], da+db) {
				res.Swaps++
				improvedAny = true
			}
		}
	}
	return improvedAny
}

// swapPair greedily applies improving single-VM swaps between two
// allocations until none remains, pricing each trade with two move
// previews (no mutate-and-revert). Returns true if at least one applied.
func (g *GlobalSubOpt) swapPair(a, b affinity.Allocation, evA, evB *affinity.DistanceEvaluator, sum0 float64) bool {
	n := len(a)
	m := len(a[0])
	improved := false
	for {
		found := false
		for p := 0; p < n && !found; p++ {
			for q := 0; q < n && !found; q++ {
				if p == q {
					continue
				}
				for j := 0; j < m; j++ {
					if a[p][j] == 0 || b[q][j] == 0 {
						continue
					}
					// Trade: a's VM p→q, b's VM q→p.
					da, _ := evA.MovePreview(topology.NodeID(p), topology.NodeID(q))
					db, _ := evB.MovePreview(topology.NodeID(q), topology.NodeID(p))
					if da+db < sum0-1e-12 {
						a.Remove(topology.NodeID(p), model.VMTypeID(j))
						a.Add(topology.NodeID(q), model.VMTypeID(j))
						evA.Move(topology.NodeID(p), topology.NodeID(q))
						b.Remove(topology.NodeID(q), model.VMTypeID(j))
						b.Add(topology.NodeID(p), model.VMTypeID(j))
						evB.Move(topology.NodeID(q), topology.NodeID(p))
						sum0 = da + db
						improved = true
						found = true
						break
					}
				}
			}
		}
		if !found {
			return improved
		}
	}
}

// PlaceSequential places a batch with any single-request placer, depleting
// capacity between requests — the "online" arm of Figs. 5 and 6.
func PlaceSequential(t *topology.Topology, l [][]int, reqs []model.Request, p Placer) (*BatchResult, error) {
	if oh, ok := p.(*OnlineHeuristic); ok && oh.Policy == ScanAllCenters {
		return placeSequentialIndexed(t, l, reqs, oh)
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
			return nil, err
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
	return res, nil
}

// placeSequentialIndexed is PlaceSequential's arm for the default
// scan: one tier index over the working matrix, updated incrementally
// per accepted allocation, so no request after the first pays an
// aggregate rebuild. Results — allocations, totals, failure counts,
// metric accounting — are identical to a Place loop; the dc the scan
// returns is bitwise the Allocation.Distance of the dense form, so Total
// needs no rescan.
func placeSequentialIndexed(t *topology.Topology, l [][]int, reqs []model.Request, oh *OnlineHeuristic) (*BatchResult, error) {
	work := cloneMatrix(l)
	res := &BatchResult{Allocs: make([]affinity.Allocation, len(reqs))}
	idx, err := affinity.NewTierIndex(t, work)
	if err != nil {
		return nil, err
	}
	var sp affinity.SparseAlloc
	for qi, r := range reqs {
		dc, _, err := oh.placeSparseMetered(idx, r, &sp)
		if err != nil {
			if errors.Is(err, ErrInsufficient) {
				res.Failed++
				continue
			}
			return nil, err
		}
		res.Allocs[qi] = sp.ToDense()
		res.Total += dc
		for _, e := range sp.Entries {
			work[e.Node][e.Type] -= e.Count
			idx.Apply(e.Node, int(e.Type), -e.Count)
		}
	}
	return res, nil
}

func cloneMatrix(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i := range src {
		out[i] = append([]int(nil), src[i]...)
	}
	return out
}
