package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/topology/topotest"
	"affinitycluster/internal/workload"
)

// TestExchangeWalksMatchDenseLoops holds Algorithm 2's step 3 and the
// migration planner, which walk the exchange neighbourhood from the
// clusters' hosting nodes (affinity.Relocations and affinity.Swaps), to
// the loops over every node pair that searched it before: the same
// first improvements, taken in the same order, and the same best moves.
// Each instance draws a plant of 1–3 clouds × 1–4 racks × 1–5 nodes,
// re-imported with permuted IDs every other time, capacities of at most
// 0–2 VMs per type and node, and 5–25 requests of 1–3 types, Normal and
// Small in turn. PlaceBatch must match the reference with MaxPasses 0
// and 1 in its allocations, total, swaps and passes, and Plan on the
// online result in its moves, gain and traffic.
//
// Algorithm 1 is exact and step 2 only takes capacity away, so no
// relocation improves the online result, and few swaps do. Each instance
// therefore also places its batch at random (Random), where both kinds
// of exchange abound, and holds the exchange step (MaxPasses 0 and 1)
// and Plan on that placement too.
func TestExchangeWalksMatchDenseLoops(t *testing.T) {
	const instances = 300
	var relocs, swaps int
	for inst := 0; inst < instances; inst++ {
		rng := rand.New(rand.NewSource(int64(inst)))
		tp, caps, reqs := exchangeInstance(t, rng, inst)
		name := fmt.Sprintf("instance %d (%d nodes, %d requests)", inst, tp.Nodes(), len(reqs))
		for _, passes := range []int{0, 1} {
			got, err := (&GlobalSubOpt{MaxPasses: passes}).PlaceBatch(tp, caps, reqs)
			if err != nil {
				t.Fatalf("%s: PlaceBatch: %v", name, err)
			}
			want, work := placeOnline(t, tp, caps, reqs)
			denseExchange(tp, want, work, passes)
			checkBatch(t, fmt.Sprintf("%s, PlaceBatch with MaxPasses %d", name, passes), got, want)
			swaps += got.Swaps
		}
		online, work := placeOnline(t, tp, caps, reqs)
		relocs += checkPlan(t, name+", online result", tp, online.Allocs, work)

		scattered, err := PlaceSequential(tp, caps, reqs, &Random{Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		work = residualOf(caps, scattered.Allocs)
		name += ", placed at random"
		for _, passes := range []int{0, 1} {
			got := &BatchResult{Allocs: cloneAllocs(scattered.Allocs)}
			(&GlobalSubOpt{MaxPasses: passes}).exchange(tp, got, cloneMatrix(work), false)
			want := &BatchResult{Allocs: cloneAllocs(scattered.Allocs)}
			denseExchange(tp, want, cloneMatrix(work), passes)
			checkBatch(t, fmt.Sprintf("%s, exchange with MaxPasses %d", name, passes), got, want)
			swaps += got.Swaps
		}
		relocs += checkPlan(t, name, tp, scattered.Allocs, work)
	}
	// The instances must exercise both kinds of move, or matching shows
	// nothing.
	if relocs == 0 || swaps == 0 {
		t.Fatalf("%d planned relocations and %d swaps over %d instances", relocs, swaps, instances)
	}
}

// TestFirstRelocationPassIsIdle: Algorithm 1 is exact, and step 2's
// later requests only take capacity away, so every target still free
// after step 2 was free when its cluster was placed, and a relocated
// cluster is one Algorithm 1 could have returned. Algorithm 2's first
// relocation pass therefore moves nothing on step 2's output.
func TestFirstRelocationPassIsIdle(t *testing.T) {
	const instances = 2000
	for inst := 0; inst < instances; inst++ {
		rng := rand.New(rand.NewSource(int64(inst)))
		tp, caps, reqs := exchangeInstance(t, rng, inst)
		res, work, err := placeSequential(tp, caps, reqs, &OnlineHeuristic{})
		if err != nil {
			t.Fatal(err)
		}
		placed := cloneAllocs(res.Allocs)
		if relocatePass(tp, res.Allocs, newEvaluators(tp, res.Allocs), work) || !reflect.DeepEqual(res.Allocs, placed) {
			t.Fatalf("instance %d (%d nodes, %d requests): the first relocation pass moved a VM of step 2's output",
				inst, tp.Nodes(), len(reqs))
		}
	}
}

// checkBatch compares an exchange step's outcome with the reference's.
func checkBatch(t *testing.T, name string, got, want *BatchResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Allocs, want.Allocs) || got.Total != want.Total ||
		got.Swaps != want.Swaps || got.Passes != want.Passes || got.Failed != want.Failed {
		t.Fatalf("%s: total %v, %d swaps, %d passes; the dense loops %v, %d, %d",
			name, got.Total, got.Swaps, got.Passes, want.Total, want.Swaps, want.Passes)
	}
}

// checkPlan compares Plan on clusters and residual with the reference,
// and returns the number of relocations planned.
func checkPlan(t *testing.T, name string, tp *topology.Topology, clusters []affinity.Allocation, residual [][]int) int {
	t.Helper()
	got, err := (&migration.Planner{}).Plan(tp, residual, clusters)
	if err != nil {
		t.Fatalf("%s: Plan: %v", name, err)
	}
	want := densePlan(tp, residual, clusters)
	if !reflect.DeepEqual(got.Moves, want.Moves) || got.TotalGain != want.TotalGain || got.TotalCost != want.TotalCost {
		t.Fatalf("%s: Plan has %d moves, gain %v, cost %v; the dense loops %d, %v, %v\ngot  %v\nwant %v",
			name, len(got.Moves), got.TotalGain, got.TotalCost, len(want.Moves), want.TotalGain, want.TotalCost, got.Moves, want.Moves)
	}
	relocs := 0
	for _, mv := range got.Moves {
		if mv.Kind == migration.Relocate {
			relocs++
		}
	}
	return relocs
}

func cloneAllocs(allocs []affinity.Allocation) []affinity.Allocation {
	out := make([]affinity.Allocation, len(allocs))
	for i, a := range allocs {
		if a != nil {
			out[i] = a.Clone()
		}
	}
	return out
}

// exchangeInstance draws one plant, its capacities and a request batch.
func exchangeInstance(t *testing.T, rng *rand.Rand, inst int) (*topology.Topology, [][]int, []model.Request) {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultDistances())
	for c := 1 + rng.Intn(3); c > 0; c-- {
		b.AddCloud()
		for r := 1 + rng.Intn(4); r > 0; r-- {
			b.AddRack()
			b.AddNodes(1 + rng.Intn(5))
		}
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if inst%2 == 1 {
		tp = topotest.Scramble(t, rng, tp)
	}
	types := 1 + rng.Intn(3)
	caps, err := workload.RandomCapacities(rng.Int63(), tp.Nodes(), types, workload.InventoryConfig{MaxPerType: rng.Intn(3)})
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.Normal
	if inst%4 >= 2 {
		sc = workload.Small
	}
	reqs, err := workload.RandomRequests(rng.Int63(), 5+rng.Intn(21), types, sc, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tp, caps, reqs
}

// placeOnline is Algorithm 2's step 2: the online placements and the
// capacity they leave.
func placeOnline(t *testing.T, tp *topology.Topology, caps [][]int, reqs []model.Request) (*BatchResult, [][]int) {
	t.Helper()
	res, err := PlaceSequential(tp, caps, reqs, &OnlineHeuristic{})
	if err != nil {
		t.Fatal(err)
	}
	return res, residualOf(caps, res.Allocs)
}

// residualOf is the capacity caps leaves once allocs are placed.
func residualOf(caps [][]int, allocs []affinity.Allocation) [][]int {
	work := cloneMatrix(caps)
	for _, a := range allocs {
		for i := range a {
			for j, k := range a[i] {
				work[i][j] -= k
			}
		}
	}
	return work
}

func newEvaluators(tp *topology.Topology, allocs []affinity.Allocation) []*affinity.DistanceEvaluator {
	evs := make([]*affinity.DistanceEvaluator, len(allocs))
	for i, a := range allocs {
		if a != nil {
			evs[i] = affinity.NewDistanceEvaluator(tp, a)
		}
	}
	return evs
}

// denseExchange is GlobalSubOpt.exchange over the dense loops.
func denseExchange(tp *topology.Topology, res *BatchResult, residual [][]int, maxPasses int) {
	evs := newEvaluators(tp, res.Allocs)
	limit := maxPasses
	if limit <= 0 || limit > 64 {
		limit = 64
	}
	for pass := 0; pass < limit; pass++ {
		improved := denseMovePass(tp, res, residual, evs)
		if denseSwapPass(res, evs) {
			improved = true
		}
		res.Passes++
		if !improved || maxPasses == 1 {
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

// denseMovePass is Algorithm 2's relocation pass over every (from, to)
// node pair: the first move of each VM that strictly lowers its
// cluster's DC, screened by MoveDelta against the current center.
func denseMovePass(t *topology.Topology, res *BatchResult, residual [][]int, evs []*affinity.DistanceEvaluator) bool {
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

// denseSwapPass is Algorithm 2's swap pass over cluster pairs with
// distinct centers.
func denseSwapPass(res *BatchResult, evs []*affinity.DistanceEvaluator) bool {
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
				continue
			}
			if denseSwapPair(a, b, evs[ai], evs[bi], da+db) {
				res.Swaps++
				improvedAny = true
			}
		}
	}
	return improvedAny
}

// denseSwapPair applies the first improving trade over every (p, q) node
// pair and type, and starts over after each, until none improves.
func denseSwapPair(a, b affinity.Allocation, evA, evB *affinity.DistanceEvaluator, sum0 float64) bool {
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

// densePlan is migration.Planner.Plan over the dense loops: up to 64
// best moves, each applied before the next is searched.
func densePlan(tp *topology.Topology, residual [][]int, clusters []affinity.Allocation) *migration.Plan {
	work := make([]affinity.Allocation, len(clusters))
	for i, c := range clusters {
		if c != nil {
			work[i] = c.Clone()
		}
	}
	evs := newEvaluators(tp, work)
	free := cloneMatrix(residual)
	plan := &migration.Plan{}
	for len(plan.Moves) < 64 {
		mv, ok := denseBestMove(tp, free, work, evs)
		if !ok {
			break
		}
		c := work[mv.Cluster]
		c.Remove(mv.From, mv.Type)
		c.Add(mv.To, mv.Type)
		evs[mv.Cluster].Move(mv.From, mv.To)
		if mv.Kind == migration.Swap {
			work[mv.Peer].Remove(mv.To, mv.Type)
			work[mv.Peer].Add(mv.From, mv.Type)
			evs[mv.Peer].Move(mv.To, mv.From)
		} else {
			free[mv.From][mv.Type]++
			free[mv.To][mv.Type]--
		}
		plan.Moves = append(plan.Moves, mv)
		plan.TotalGain += mv.Gain
		plan.TotalCost += mv.CostMB
	}
	return plan
}

// denseBestMove scans every relocation and every swap over all node
// pairs for the largest strict gain; the first found wins a tie.
func denseBestMove(t *topology.Topology, free [][]int, clusters []affinity.Allocation, evs []*affinity.DistanceEvaluator) (migration.Move, bool) {
	var best migration.Move
	found := false
	consider := func(mv migration.Move) {
		if !found || mv.Gain > best.Gain {
			best = mv
			found = true
		}
	}
	n := t.Nodes()
	for ci, c := range clusters {
		if c == nil {
			continue
		}
		d0, _ := evs[ci].Distance()
		m := len(c[0])
		for from := 0; from < n; from++ {
			for j := 0; j < m; j++ {
				if c[from][j] == 0 {
					continue
				}
				for to := 0; to < n; to++ {
					if to == from || free[to][j] == 0 {
						continue
					}
					d1, _ := evs[ci].MovePreview(topology.NodeID(from), topology.NodeID(to))
					if gain := d0 - d1; gain > 1e-12 {
						consider(migration.Move{
							Kind: migration.Relocate, Cluster: ci, Peer: -1, Type: model.VMTypeID(j),
							From: topology.NodeID(from), To: topology.NodeID(to), Gain: gain, CostMB: memoryMB(m, model.VMTypeID(j)),
						})
					}
				}
			}
		}
	}
	for ai := 0; ai < len(clusters); ai++ {
		a := clusters[ai]
		if a == nil {
			continue
		}
		for bi := ai + 1; bi < len(clusters); bi++ {
			b := clusters[bi]
			if b == nil {
				continue
			}
			da0, _ := evs[ai].Distance()
			db0, _ := evs[bi].Distance()
			m := len(a[0])
			for p := 0; p < n; p++ {
				for q := 0; q < n; q++ {
					if p == q {
						continue
					}
					for j := 0; j < m; j++ {
						if a[p][j] == 0 || b[q][j] == 0 {
							continue
						}
						da1, _ := evs[ai].MovePreview(topology.NodeID(p), topology.NodeID(q))
						db1, _ := evs[bi].MovePreview(topology.NodeID(q), topology.NodeID(p))
						if gain := (da0 + db0) - (da1 + db1); gain > 1e-12 {
							consider(migration.Move{
								Kind: migration.Swap, Cluster: ai, Peer: bi, Type: model.VMTypeID(j),
								From: topology.NodeID(p), To: topology.NodeID(q), Gain: gain, CostMB: 2 * memoryMB(m, model.VMTypeID(j)),
							})
						}
					}
				}
			}
		}
	}
	return best, found
}

// memoryMB is the planner's traffic of one VM: its memory in the default
// catalog when the plant has that catalog's type count, else 1 GB.
func memoryMB(types int, vt model.VMTypeID) float64 {
	if def := model.DefaultCatalog(); def.Types() == types {
		return def[vt].MemoryGB * 1024
	}
	return 1024
}
