// Churn benchmarks and gates: steady-state place/release/fail cycles
// against a live inventory with an attached tier index — the operational
// regime the persistent aggregates exist for. BenchmarkChurn feeds
// BENCH_churn.json (make bench-churn); TestChurnSteadyStateZeroAllocs is
// the allocation-regression gate; TestChurnIncrementalLockstep is the
// correctness property tying the incremental index and the pruned scan to
// fresh rebuilds and the exhaustive oracle after every mutation kind.
package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/topology/topotest"
	"affinitycluster/internal/workload"
)

// churnRing is a FIFO of live clusters over one inventory: each slot holds
// the request vector and the committed sparse entries, so the steady-state
// step (release oldest, re-place the same vector, commit) conserves
// utilization exactly and reuses every backing array.
type churnRing struct {
	inv        *inventory.Inventory
	idx        *affinity.TierIndex
	h          *placement.OnlineHeuristic
	reqs       []model.Request
	ents       [][]affinity.VMEntry
	oldest     int
	sp         affinity.SparseAlloc
	allocTotal []int // VMs per node, for the fail arm's empty-victim scan
	cursor     int
}

// fillChurnRing builds an inventory + attached index over caps and places
// seeded random clusters until utilization reaches utilPct of the plant's
// VM slots.
func fillChurnRing(tb testing.TB, topo *topology.Topology, caps [][]int, nodesPerRack, utilPct int, seed int64) *churnRing {
	tb.Helper()
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := inv.AttachTierIndex(topo)
	if err != nil {
		tb.Fatal(err)
	}
	total := 0
	for i := range caps {
		total += model.Sum(caps[i])
	}
	r := &churnRing{
		inv:        inv,
		idx:        idx,
		h:          &placement.OnlineHeuristic{},
		allocTotal: make([]int, topo.Nodes()),
	}
	rng := rand.New(rand.NewSource(seed))
	types := len(caps[0])
	used := 0
	for used*100 < total*utilPct {
		req := make(model.Request, types)
		for j := range req {
			req[j] = 1 + rng.Intn(nodesPerRack/2+1)
		}
		if _, _, err := r.h.PlaceSparse(r.idx, req, &r.sp); err != nil {
			tb.Fatalf("prefill placement at %d/%d VMs: %v", used, total, err)
		}
		if err := inv.AllocateList(r.sp.Entries); err != nil {
			tb.Fatalf("prefill commit: %v", err)
		}
		for _, e := range r.sp.Entries {
			r.allocTotal[e.Node] += e.Count
			used += e.Count
		}
		r.reqs = append(r.reqs, req)
		r.ents = append(r.ents, append([]affinity.VMEntry(nil), r.sp.Entries...))
	}
	return r
}

// step is one steady-state churn iteration: tear down the oldest cluster
// and re-place its exact request vector. The success path allocates
// nothing once the ring's entry slices have reached working size.
func (r *churnRing) step() error {
	s := r.oldest
	for _, e := range r.ents[s] {
		r.allocTotal[e.Node] -= e.Count
	}
	if err := r.inv.ReleaseList(r.ents[s]); err != nil {
		return err
	}
	if _, _, err := r.h.PlaceSparse(r.idx, r.reqs[s], &r.sp); err != nil {
		return err
	}
	if err := r.inv.AllocateList(r.sp.Entries); err != nil {
		return err
	}
	for _, e := range r.sp.Entries {
		r.allocTotal[e.Node] += e.Count
	}
	r.ents[s] = append(r.ents[s][:0], r.sp.Entries...)
	r.oldest = (s + 1) % len(r.ents)
	return nil
}

// failRestoreEmpty crashes and immediately repairs the next node hosting
// no VMs — exercising the whole-row index repair (rack/cloud max rescans)
// without destroying any live cluster's bookkeeping.
func (r *churnRing) failRestoreEmpty() error {
	n := len(r.allocTotal)
	for tries := 0; tries < n; tries++ {
		v := r.cursor
		r.cursor = (r.cursor + 1) % n
		if r.allocTotal[v] != 0 {
			continue
		}
		if _, err := r.inv.FailNode(topology.NodeID(v)); err != nil {
			return err
		}
		return r.inv.RestoreNode(topology.NodeID(v))
	}
	return errors.New("no empty node to fail")
}

// BenchmarkChurn measures the steady-state churn cost against a live
// inventory with the persistent tier index attached: release the oldest
// cluster, place an identical request, commit — at several utilizations,
// with a fail/restore mix arm, and at the million-node plant. The
// place-release arms are the zero-allocation steady state gated by
// TestChurnSteadyStateZeroAllocs.
func BenchmarkChurn(b *testing.B) {
	if testing.Short() {
		b.Skip("churn plants are too heavy for -short runs")
	}
	const types = 3
	run := func(name string, clouds, racks, nodesPerRack, utilPct int, failMix bool) {
		b.Run(name, func(b *testing.B) {
			topo, err := topology.Uniform(clouds, racks, nodesPerRack, topology.DefaultDistances())
			if err != nil {
				b.Fatal(err)
			}
			caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.DefaultInventoryConfig())
			if err != nil {
				b.Fatal(err)
			}
			ring := fillChurnRing(b, topo, caps, nodesPerRack, utilPct, benchSeed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ring.step(); err != nil {
					b.Fatal(err)
				}
				if failMix {
					if err := ring.failRestoreEmpty(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("place-release/10x40x40/util30", 10, 40, 40, 30, false)
	run("place-release/10x40x40/util60", 10, 40, 40, 60, false)
	run("place-release/10x40x40/util90", 10, 40, 40, 90, false)
	run("fail-restore-mix/10x40x40/util60", 10, 40, 40, 60, true)
	run("place-release/100x100x100/util30", 100, 100, 100, 30, false)
}

// TestChurnSteadyStateZeroAllocs gates the steady state's allocations:
// after warmup, a churn step (ReleaseList + PlaceSparse + AllocateList +
// ring bookkeeping) must not allocate. GC is disabled around the
// measurement so the count reads only the step's own allocations. The
// plants are small so the gate also runs in -short mode. Each arm
// drives code the others miss: util90 the slow path's container and
// node heaps, the fail-restore mix FailNode and RestoreNode with the
// index repairs of a whole row (its 2 allocs are the saved capacity row
// and the lost row FailNode returns), and the 8-cloud plant of single
// 3-node racks the far-cloud gather of requests that outgrow their
// cloud.
func TestChurnSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in non-race builds")
	}
	const types = 3
	for _, tc := range []struct {
		name                        string
		clouds, racks, nodesPerRack int
		reqSpan, utilPct            int // reqSpan sizes the ring's requests (fillChurnRing's nodesPerRack)
		failMix                     bool
		want                        float64
	}{
		{"place-release/2x10x10/util30", 2, 10, 10, 10, 30, false, 0},
		{"place-release/2x10x10/util90", 2, 10, 10, 10, 90, false, 0},
		{"fail-restore-mix/2x10x10/util60", 2, 10, 10, 10, 60, true, 2},
		{"place-release/8x1x3/util75", 8, 1, 3, 6, 75, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := topology.Uniform(tc.clouds, tc.racks, tc.nodesPerRack, topology.DefaultDistances())
			if err != nil {
				t.Fatal(err)
			}
			caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.DefaultInventoryConfig())
			if err != nil {
				t.Fatal(err)
			}
			ring := fillChurnRing(t, topo, caps, tc.reqSpan, tc.utilPct, benchSeed)
			step := func() {
				if err := ring.step(); err != nil {
					t.Fatal(err)
				}
				if tc.failMix {
					if err := ring.failRestoreEmpty(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 3*len(ring.ents); i++ { // size the scratch and entry slices
				step()
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if avg := testing.AllocsPerRun(100, step); avg != tc.want {
				t.Fatalf("steady-state churn step allocates %.2f times per op, want %v", avg, tc.want)
			}
		})
	}
}

// churnPlant builds a small random plant of minClouds to minClouds+2
// clouds. Every other plant is re-imported scrambled (topotest.Scramble), so
// the scan also meets racks whose node IDs are not consecutive and
// clouds that interleave.
func churnPlant(t *testing.T, rng *rand.Rand, minClouds int) *topology.Topology {
	t.Helper()
	topo := builderPlant(t, rng, minClouds)
	if rng.Intn(2) == 0 {
		return topo
	}
	return topotest.Scramble(t, rng, topo)
}

// builderPlant builds a random Builder plant of minClouds to minClouds+2
// clouds, each of 1–4 racks of 1–5 nodes.
func builderPlant(t *testing.T, rng *rand.Rand, minClouds int) *topology.Topology {
	t.Helper()
	bld := topology.NewBuilder(topology.DefaultDistances())
	clouds := minClouds + rng.Intn(3)
	for c := 0; c < clouds; c++ {
		bld.AddCloud()
		racks := 1 + rng.Intn(4)
		for k := 0; k < racks; k++ {
			bld.AddRack()
			bld.AddNodes(1 + rng.Intn(5))
		}
	}
	topo, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// lockstep holds two parallel worlds over one plant: the incremental one
// (an inventory with an attached tier index, placements through the
// pruned PlaceSparse scan and sparse commits) and the oracle one (a
// plain inventory, placements through the exhaustive-center reference
// path on a cloned snapshot).
type lockstep struct {
	t          *testing.T
	name       string
	step       int
	topo       *topology.Topology
	invA, invB *inventory.Inventory
	idx        *affinity.TierIndex
	pruned     *placement.OnlineHeuristic
	exhaustive *placement.Exhaustive
	sp         affinity.SparseAlloc
	live       []lockCluster
	failed     []topology.NodeID // failed nodes, oldest first
}

type lockCluster struct {
	ents  []affinity.VMEntry
	dense affinity.Allocation
}

func newLockstep(t *testing.T, name string, topo *topology.Topology, caps [][]int) *lockstep {
	t.Helper()
	invA, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := invA.AttachTierIndex(topo)
	if err != nil {
		t.Fatal(err)
	}
	invB, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	return &lockstep{
		t: t, name: name, topo: topo, invA: invA, invB: invB, idx: idx,
		pruned:     &placement.OnlineHeuristic{},
		exhaustive: &placement.Exhaustive{},
	}
}

// place places req in both worlds, requires the same feasibility,
// allocation and DC from both, and commits it. It reports whether req
// was placed.
func (w *lockstep) place(req model.Request) bool {
	t := w.t
	t.Helper()
	dA, _, errA := w.pruned.PlaceSparse(w.idx, req, &w.sp)
	dense, errB := w.exhaustive.Place(w.topo, w.invB.Remaining(), req)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s step %d: pruned err %v, exhaustive err %v", w.name, w.step, errA, errB)
	}
	if errA != nil {
		if !errors.Is(errA, placement.ErrInsufficient) {
			t.Fatalf("%s step %d: %v", w.name, w.step, errA)
		}
		return false
	}
	if got := w.sp.ToDense(); !reflect.DeepEqual(got, dense) {
		t.Fatalf("%s step %d: allocations differ for %v\npruned:     %v\nexhaustive: %v", w.name, w.step, req, got, dense)
	}
	dB, _ := dense.Distance(w.topo)
	if dA != dB {
		t.Fatalf("%s step %d: DC %v != %v", w.name, w.step, dA, dB)
	}
	if err := w.invA.AllocateList(w.sp.Entries); err != nil {
		t.Fatalf("%s step %d: AllocateList: %v", w.name, w.step, err)
	}
	if err := w.invB.Allocate([][]int(dense)); err != nil {
		t.Fatalf("%s step %d: Allocate: %v", w.name, w.step, err)
	}
	w.live = append(w.live, lockCluster{
		ents:  append([]affinity.VMEntry(nil), w.sp.Entries...),
		dense: dense,
	})
	return true
}

// churn runs steps random place / release / fail / restore operations,
// placing next() requests, and checks both worlds after each.
func (w *lockstep) churn(rng *rand.Rand, steps int, next func() model.Request) {
	t := w.t
	t.Helper()
	n := w.topo.Nodes()
	for s := 0; s < steps; s++ {
		switch op := rng.Intn(6); {
		case op <= 2:
			w.place(next())
		case op == 3 && len(w.live) > 0: // release
			k := rng.Intn(len(w.live))
			c := w.live[k]
			if err := w.invA.ReleaseList(c.ents); err != nil {
				t.Fatalf("%s step %d: ReleaseList: %v", w.name, w.step, err)
			}
			if err := w.invB.Release([][]int(c.dense)); err != nil {
				t.Fatalf("%s step %d: Release: %v", w.name, w.step, err)
			}
			w.live = append(w.live[:k], w.live[k+1:]...)
		case op == 4: // fail a node, dropping its VMs from live clusters
			v := topology.NodeID(rng.Intn(n))
			if slices.Contains(w.failed, v) {
				break
			}
			lostA, errA := w.invA.FailNode(v)
			lostB, errB := w.invB.FailNode(v)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s step %d: FailNode err %v vs %v", w.name, w.step, errA, errB)
			}
			if errA != nil {
				break
			}
			if !reflect.DeepEqual(lostA, lostB) {
				t.Fatalf("%s step %d: lost %v vs %v", w.name, w.step, lostA, lostB)
			}
			w.failed = append(w.failed, v)
			for k := range w.live {
				kept := w.live[k].ents[:0]
				for _, e := range w.live[k].ents {
					if e.Node != v {
						kept = append(kept, e)
					}
				}
				w.live[k].ents = kept
				for j := range w.live[k].dense[v] {
					w.live[k].dense[v][j] = 0
				}
			}
		default: // restore the longest-failed node
			if len(w.failed) == 0 {
				break
			}
			v := w.failed[0]
			if err := w.invA.RestoreNode(v); err != nil {
				t.Fatalf("%s step %d: RestoreNode: %v", w.name, w.step, err)
			}
			if err := w.invB.RestoreNode(v); err != nil {
				t.Fatalf("%s step %d: RestoreNode oracle: %v", w.name, w.step, err)
			}
			w.failed = w.failed[1:]
		}
		w.check()
	}
}

// check requires the attached index to match a fresh rebuild and the
// two inventories to agree cell for cell.
func (w *lockstep) check() {
	t := w.t
	t.Helper()
	if err := w.idx.CheckConsistent(); err != nil {
		t.Fatalf("%s step %d: %v", w.name, w.step, err)
	}
	if err := w.invA.CheckInvariants(); err != nil {
		t.Fatalf("%s step %d: %v", w.name, w.step, err)
	}
	if !reflect.DeepEqual(w.invA.Remaining(), w.invB.Remaining()) {
		t.Fatalf("%s step %d: remaining matrices diverged", w.name, w.step)
	}
	w.step++
}

// saturated reports whether some cloud has no capacity left of any type.
func (w *lockstep) saturated() bool {
	for c := 0; c < w.topo.Clouds(); c++ {
		if model.Sum(w.idx.CloudRemain(c)) == 0 {
			return true
		}
	}
	return false
}

// TestChurnIncrementalLockstep drives random place / release / fail /
// restore sequences through the two lockstep worlds. After every step the
// attached index must match a fresh rebuild, the two inventories must
// agree cell for cell, and every placement must be identical —
// allocation, DC, feasibility — between the pruned and exhaustive paths.
// Three kinds of plant run: random plants churned with small requests;
// multi-cloud plants first filled through the scan until a whole cloud
// saturates (the regime where the scan jumps saturated clouds and shares
// their purely remote build) and then churned with open-loop-sized
// requests, among them plants of 4–6 clouds, plain and scrambled, whose
// far drain ranks several clouds by their bounds before it opens their
// racks; and a fixed plant where that shared build wins at node 0.
func TestChurnIncrementalLockstep(t *testing.T) {
	trials := 20
	steps := 50
	if testing.Short() {
		trials, steps = 6, 30
	}
	rng := rand.New(rand.NewSource(2012))
	randomCaps := func(n, types, maxPerType int) [][]int {
		caps := make([][]int, n)
		for i := range caps {
			caps[i] = make([]int, types)
			for j := range caps[i] {
				caps[i][j] = rng.Intn(maxPerType + 1)
			}
		}
		return caps
	}
	for trial := 0; trial < trials; trial++ {
		topo := churnPlant(t, rng, 1)
		types := 1 + rng.Intn(3)
		w := newLockstep(t, fmt.Sprintf("trial %d", trial), topo, randomCaps(topo.Nodes(), types, 4))
		w.churn(rng, steps, func() model.Request {
			req := make(model.Request, types)
			for j := range req {
				req[j] = rng.Intn(4)
			}
			return req
		})
	}

	// Pre-filled plants hold at most 2 VMs per type per node, as the
	// 16k-node service benchmark's plant does, so open-loop requests miss
	// the single-node fast path often enough to reach the sweep.
	prefilled := func(name string, trial int, topo *topology.Topology) {
		types := 1 + rng.Intn(3)
		w := newLockstep(t, name, topo, randomCaps(topo.Nodes(), types, 2))
		cfg := workload.DefaultOpenLoopConfig()
		cfg.Types = types
		gen, err := workload.NewOpenLoop(int64(trial), 1<<20, cfg)
		if err != nil {
			t.Fatal(err)
		}
		next := func() model.Request {
			tr, ok, err := gen.Next()
			if err != nil || !ok {
				t.Fatalf("open-loop generator: %v, %v", ok, err)
			}
			return tr.Vector
		}
		for tries := 0; !w.saturated(); tries++ {
			if tries == 10*topo.Nodes()*types {
				t.Fatalf("%s: no cloud saturated after %d fill requests", w.name, tries)
			}
			w.place(next())
			w.check()
		}
		w.churn(rng, 2*steps, next)
	}
	for trial := 0; trial < trials; trial++ {
		prefilled(fmt.Sprintf("pre-filled trial %d", trial), trial, churnPlant(t, rng, 2))
	}
	for trial := 0; trial < trials; trial++ {
		topo := builderPlant(t, rng, 4)
		name := fmt.Sprintf("pre-filled %d-cloud trial %d", topo.Clouds(), trial)
		if trial%2 == 1 {
			topo = topotest.Scramble(t, rng, topo)
			name += " (scrambled)"
		}
		prefilled(name, trial, topo)
	}

	// Cloud 0 (nodes 0–3) is filled by two requests; the third request's
	// winner is the purely remote build around node 0, shared by every
	// saturated cloud, which packs the two largest remote nodes — not the
	// build around node 4, the first center the scan reaches outside
	// cloud 0.
	topo, err := topology.Uniform(2, 1, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	w := newLockstep(t, "saturated cloud 0", topo, [][]int{{1}, {1}, {2}, {2}, {1}, {1}, {2}, {2}})
	for k := 0; k < 3; k++ {
		if !w.place(model.Request{3}) {
			t.Fatalf("%s: request %d not placed", w.name, k)
		}
		w.check()
	}
	if !w.saturated() || !reflect.DeepEqual(w.live[2].dense, affinity.Allocation{{0}, {0}, {0}, {0}, {0}, {0}, {2}, {1}}) {
		t.Fatalf("%s: third allocation %v, want nodes 6 and 7 with cloud 0 saturated", w.name, w.live[2].dense)
	}
}
