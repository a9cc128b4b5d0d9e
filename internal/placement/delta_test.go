package placement

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// deltaPlant is a fixed 2-cloud plant for the targeted delta tests.
func deltaPlant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(2, 3, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// randomRequest draws a per-type demand with at least one VM.
func randomRequest(rng *rand.Rand, m, scale int) model.Request {
	r := make(model.Request, m)
	total := 0
	for j := range r {
		r[j] = rng.Intn(scale)
		total += r[j]
	}
	if total == 0 {
		r[rng.Intn(m)] = 1
	}
	return r
}

// TestPlaceDeltaEmptyEqualsPlace: growing an empty cluster IS placing —
// PlaceDeltaSparse must reproduce Place bit for bit, center scan
// included.
func TestPlaceDeltaEmptyEqualsPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := make([][]int, n)
		for i := range work {
			work[i] = make([]int, m)
			for j := range work[i] {
				work[i][j] = rng.Intn(4)
			}
		}
		h := &OnlineHeuristic{}
		r := randomRequest(rng, m, n)
		want, wantErr := h.Place(tp, work, r)
		idx, err := affinity.NewTierIndex(tp, work)
		if err != nil {
			t.Fatal(err)
		}
		var sp affinity.SparseAlloc
		dc, center, gotErr := h.PlaceDeltaSparse(idx, nil, r, &sp)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: PlaceDeltaSparse err %v, Place err %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		got := affinity.NewAllocation(n, m)
		for _, e := range sp.Entries {
			got[e.Node][e.Type] += e.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: empty-cluster PlaceDeltaSparse differs from Place\ngot  %v\nwant %v", trial, got, want)
		}
		if wantDC, wantCenter := want.Distance(tp); dc != wantDC || center != wantCenter {
			t.Fatalf("trial %d: empty-cluster score (%v, %d), placed cluster (%v, %d)", trial, dc, center, wantDC, wantCenter)
		}
	}
}

// TestPlaceDeltaLockstepOracleProperty grows random clusters step by
// step and checks each delta against the dense reference: the greedy
// fill (buildBuffer.buildAround) of the delta around the cluster's
// current central node, with the merged DC/center recomputed from
// scratch. Entries, DC and center must match exactly — the
// tier-aggregated delta path must be invisible next to a full dense
// re-placement of the delta. The tier index aliases work, so every
// commit to work is reported to it.
func TestPlaceDeltaLockstepOracleProperty(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := make([][]int, n)
		for i := range work {
			work[i] = make([]int, m)
			for j := range work[i] {
				work[i][j] = rng.Intn(5)
			}
		}
		h := &OnlineHeuristic{}
		seed := randomRequest(rng, m, n/2+1)
		cluster, err := h.Place(tp, work, seed)
		if err != nil {
			continue
		}
		for i := range cluster {
			for j, k := range cluster[i] {
				work[i][j] -= k
			}
		}
		idx, err := affinity.NewTierIndex(tp, work)
		if err != nil {
			t.Fatal(err)
		}
		var sp affinity.SparseAlloc
		for step := 0; step < 8; step++ {
			delta := randomRequest(rng, m, 4)
			// Oracle: fill delta around the cluster's current center on a
			// private copy, merge, and rescore from scratch.
			_, center0 := cluster.Distance(tp)
			buf := newBuildBuffer(n, m)
			okOracle := buf.buildAround(tp, work, delta, center0)
			oracleDelta := buf.alloc.Clone()
			merged := cluster.Clone()
			for i := range oracleDelta {
				for j, k := range oracleDelta[i] {
					merged[i][j] += k
				}
			}
			wantDC, wantK := merged.Distance(tp)

			cur := cluster.Sparse()
			before := append([]affinity.VMEntry(nil), cur...)
			dc, k, err := h.PlaceDeltaSparse(idx, cur, delta, &sp)
			if !reflect.DeepEqual(cur, before) {
				t.Fatalf("trial %d step %d: PlaceDeltaSparse mutated the cluster's cells", trial, step)
			}
			if err != nil {
				if okOracle {
					t.Fatalf("trial %d step %d: PlaceDeltaSparse failed (%v) where oracle built", trial, step, err)
				}
				break
			}
			gotDelta := affinity.NewAllocation(n, m)
			for _, e := range sp.Entries {
				gotDelta[e.Node][e.Type] += e.Count
			}
			if !reflect.DeepEqual(gotDelta, oracleDelta) {
				t.Fatalf("trial %d step %d: delta build differs from dense oracle around center %d\ngot  %v\nwant %v\ndelta %v",
					trial, step, center0, gotDelta, oracleDelta, delta)
			}
			if dc != wantDC || k != wantK {
				t.Fatalf("trial %d step %d: merged score (%v, %d), scratch (%v, %d)", trial, step, dc, k, wantDC, wantK)
			}
			// Commit: extend the cluster and take the delta out of work.
			for _, e := range sp.Entries {
				cluster[e.Node][e.Type] += e.Count
				work[e.Node][e.Type] -= e.Count
				idx.Apply(e.Node, int(e.Type), -e.Count)
			}
			if err := idx.CheckConsistent(); err != nil {
				t.Fatalf("trial %d step %d: tier index after commit: %v", trial, step, err)
			}
			if !reflect.DeepEqual(cluster, merged) {
				t.Fatalf("trial %d step %d: extension diverged from merge", trial, step)
			}
		}
	}
}

// TestReleaseSubsetMatchesBruteForceProperty holds the shrink to a
// brute-force enumeration of every removal (checkShrink) on 2,450 random
// small clusters of 1–12 VMs and 1–3 types, on random and scrambled
// plants. The first 50 draws give back a single VM of the lowest type
// the cluster holds, on clusters of 6–17 VMs; the rest give back a
// random part of each type.
func TestReleaseSubsetMatchesBruteForceProperty(t *testing.T) {
	h := &OnlineHeuristic{}
	for trial := 0; trial < 2450; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		a := affinity.NewAllocation(n, m)
		vms := 1 + rng.Intn(12)
		if trial < 50 {
			vms = 6 + rng.Intn(12)
		}
		for v := 0; v < vms; v++ {
			a.Add(topology.NodeID(rng.Intn(n)), model.VMTypeID(rng.Intn(m)))
		}
		have := a.Vector()
		delta := make(model.Request, m)
		if trial < 50 {
			j := 0
			for have[j] == 0 {
				j++
			}
			delta[j] = 1
		} else {
			for j := range delta {
				delta[j] = rng.Intn(have[j] + 1)
			}
		}
		checkShrink(t, h, tp, a.Sparse(), delta)
	}
}

// checkShrink runs the long-lived placer h's ReleaseSubsetSparse on
// cells and holds it to the brute force: a delta the cluster cannot give
// back is refused; any other returns victims that sum to delta per type,
// each a positive part of a cell, and leave the least DC that any
// removal of delta can leave, priced by the row-scan oracle
// Allocation.DistanceFrom over every node. The package-level
// ReleaseSubsetSparse, on fresh scratch, must return what h returns, so
// h's kept scratch carries nothing from one call into the next, and the
// dense ReleaseSubset must take the same victims out of its matrix.
func checkShrink(t *testing.T, h *OnlineHeuristic, tp *topology.Topology, cells []affinity.VMEntry, delta model.Request) {
	t.Helper()
	n, m := tp.Nodes(), len(delta)
	a := affinity.NewAllocation(n, m)
	for _, c := range cells {
		a[c.Node][c.Type] += c.Count
	}
	have := a.Vector()
	feasible := true
	for j, v := range delta {
		feasible = feasible && v <= have[j]
	}
	victims, err := h.ReleaseSubsetSparse(tp, cells, delta)
	fresh, ferr := ReleaseSubsetSparse(tp, cells, delta)
	if (err == nil) != (ferr == nil) || !reflect.DeepEqual(victims, fresh) {
		t.Fatalf("shrink by %v of %v: kept placer %v (%v), fresh scratch %v (%v)", delta, a, victims, err, fresh, ferr)
	}
	if !feasible {
		if err == nil {
			t.Fatalf("shrink by %v of a cluster holding %v accepted: %v", delta, have, victims)
		}
		return
	}
	if err != nil {
		t.Fatalf("shrink by %v of %v: %v", delta, a, err)
	}
	left := a.Clone()
	got := make(model.Request, m)
	for _, v := range victims {
		if v.Count <= 0 {
			t.Fatalf("shrink by %v of %v returned victim %v", delta, a, v)
		}
		left[v.Node][v.Type] -= v.Count
		if left[v.Node][v.Type] < 0 {
			t.Fatalf("shrink by %v of %v takes victim %v beyond its cell", delta, a, v)
		}
		got[v.Type] += v.Count
	}
	for j := range delta {
		if got[j] != delta[j] {
			t.Fatalf("shrink by %v of %v gave back %v", delta, a, got)
		}
	}
	if dc, best := rowScanDC(tp, left), bestShrinkDC(tp, a, delta); dc != best {
		t.Fatalf("shrink by %v of %v leaves %v (DC %v), least DC of any removal is %v", delta, a, left, dc, best)
	}
	dense := a.Clone()
	again, err := ReleaseSubset(tp, dense, delta)
	if err != nil || !reflect.DeepEqual(again, victims) || !reflect.DeepEqual(dense, left) {
		t.Fatalf("dense shrink by %v of %v: victims %v (%v), sparse %v", delta, a, again, err, victims)
	}
}

// bestShrinkDC enumerates every way to take delta's VMs out of a and
// returns the least DC left, by the row-scan oracle.
func bestShrinkDC(tp *topology.Topology, a affinity.Allocation, delta model.Request) float64 {
	cells := a.Sparse()
	work := a.Clone()
	owed := append(model.Request(nil), delta...)
	best := math.Inf(1)
	var walk func(i int)
	walk = func(i int) {
		if i == len(cells) {
			if model.Sum(owed) == 0 {
				best = math.Min(best, rowScanDC(tp, work))
			}
			return
		}
		c := cells[i]
		for x := 0; x <= min(c.Count, owed[c.Type]); x++ {
			work[c.Node][c.Type] -= x
			owed[c.Type] -= x
			walk(i + 1)
			work[c.Node][c.Type] += x
			owed[c.Type] += x
		}
	}
	walk(0)
	return best
}

// rowScanDC is Definition 1 by brute force: the least Σ_i w_i·D_ik over
// every node k of the plant (0 for an empty cluster).
func rowScanDC(tp *topology.Topology, a affinity.Allocation) float64 {
	if a.TotalVMs() == 0 {
		return 0
	}
	best := math.Inf(1)
	for k := 0; k < tp.Nodes(); k++ {
		best = math.Min(best, a.DistanceFrom(tp, topology.NodeID(k)))
	}
	return best
}

// TestReleaseSubsetConservesAndConcentrates: a multi-VM shrink returns
// exactly the per-type delta, and on a cluster straddling two racks it
// gives back the straggler VMs first, collapsing DC to the one-rack
// optimum.
func TestReleaseSubsetConservesAndConcentrates(t *testing.T) {
	tp := deltaPlant(t)
	a := affinity.NewAllocation(tp.Nodes(), 1)
	// 6 VMs on rack 0 (nodes 0, 1), 2 stragglers on rack 1 (node 4) and
	// rack 2 (node 8).
	a[0][0] = 4
	a[1][0] = 2
	a[4][0] = 1
	a[8][0] = 1
	victims, err := ReleaseSubset(tp, a, model.Request{2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range victims {
		total += v.Count
		if v.Node != 4 && v.Node != 8 {
			t.Errorf("shrink victimized core node %d instead of a straggler", v.Node)
		}
	}
	if total != 2 {
		t.Fatalf("shrink returned %d VMs, want 2", total)
	}
	if a.TotalVMs() != 6 {
		t.Fatalf("cluster holds %d VMs after shrink, want 6", a.TotalVMs())
	}
	dc, k := a.Distance(tp)
	if want := 2 * tp.Distances().SameRack; dc != want || k != 0 {
		t.Fatalf("post-shrink DC (%v, %d), want (%v, 0)", dc, k, want)
	}
	// Infeasible shrink: asks back more than the cluster holds.
	if _, err := ReleaseSubset(tp, a, model.Request{7}); err == nil {
		t.Fatal("oversized shrink accepted")
	}
}

// TestReleaseSubsetTieBreaks pins the shrink's choice among removals
// that leave the same DC, which the elastic goldens and the traced
// replay depend on: the center is the lowest-ID cheapest host, each type
// gives back its farthest VMs first, and within a tier cells go in
// ascending (node, type) order, whatever order the caller's cells come
// in.
func TestReleaseSubsetTieBreaks(t *testing.T) {
	tp := deltaPlant(t)
	d := tp.Distances()

	// Nodes 1 and 2 (rack 0) tie as centers; node 5 sits in rack 1 and
	// node 13 in the other cloud. Keeping 3 around node 1 gives back the
	// cross-cloud VM, then the cross-rack one, then one of node 2's.
	a := affinity.NewAllocation(tp.Nodes(), 1)
	a[1][0], a[2][0], a[5][0], a[13][0] = 2, 2, 1, 1
	victims, err := ReleaseSubset(tp, a, model.Request{3})
	if err != nil {
		t.Fatal(err)
	}
	if want := []affinity.VMEntry{{Node: 13, Type: 0, Count: 1}, {Node: 5, Type: 0, Count: 1}, {Node: 2, Type: 0, Count: 1}}; !reflect.DeepEqual(victims, want) {
		t.Fatalf("victims %v, want %v", victims, want)
	}
	if dc, k := a.Distance(tp); dc != d.SameRack || k != 1 {
		t.Fatalf("post-shrink DC (%v, %d), want (%v, 1)", dc, k, d.SameRack)
	}

	// Node 0 is the center; every victim is one rack away from it, on
	// nodes 1, 2 and 3. The cells arrive unsorted, with node 0's type-0
	// cell split in two, and the victims still follow (node, type) order.
	cur := []affinity.VMEntry{
		{Node: 3, Type: 1, Count: 1}, {Node: 0, Type: 0, Count: 2}, {Node: 2, Type: 1, Count: 1},
		{Node: 3, Type: 0, Count: 1}, {Node: 0, Type: 1, Count: 3}, {Node: 1, Type: 0, Count: 1},
		{Node: 0, Type: 0, Count: 1},
	}
	victims, err = ReleaseSubsetSparse(tp, cur, model.Request{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []affinity.VMEntry{{Node: 1, Type: 0, Count: 1}, {Node: 2, Type: 1, Count: 1}}; !reflect.DeepEqual(victims, want) {
		t.Fatalf("victims %v, want %v", victims, want)
	}
}

// TestReleaseSubsetDoesNotAlias: the victims slice aliases neither the
// caller's entry slice nor the placer's scratch. A second shrink on the
// same placer must leave the first one's victims as they were, and
// mutating them must not perturb the caller's entries or a repeat run.
func TestReleaseSubsetDoesNotAlias(t *testing.T) {
	tp := deltaPlant(t)
	a := affinity.NewAllocation(tp.Nodes(), 2)
	a[0][0], a[0][1], a[5][0], a[9][1] = 2, 1, 1, 1
	cur := a.Sparse()
	curCopy := append([]affinity.VMEntry(nil), cur...)
	h := &OnlineHeuristic{}
	victims, err := h.ReleaseSubsetSparse(tp, cur, model.Request{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]affinity.VMEntry(nil), victims...)
	other, err := h.ReleaseSubsetSparse(tp, cur, model.Request{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, want) {
		t.Fatalf("shrinks by {1 1} and {2 0} both gave back %v; the check below would be vacuous", want)
	}
	if !reflect.DeepEqual(victims, want) {
		t.Fatalf("a second shrink turned the first one's victims %v into %v; the result aliases the placer's scratch", want, victims)
	}
	for i := range victims {
		victims[i] = affinity.VMEntry{Node: -99, Type: -99, Count: -99}
	}
	if !reflect.DeepEqual(cur, curCopy) {
		t.Fatal("mutating victims changed the caller's entries; slices alias")
	}
	again, err := h.ReleaseSubsetSparse(tp, cur, model.Request{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("repeat run returned %v, first run %v; internal state aliased", again, want)
	}
}

// TestReleaseSubsetRejectsBadEntries: an entry whose node or type lies
// outside the plant and the delta, or whose count is negative, is an
// error — never a panic, and never silently priced into the cluster.
func TestReleaseSubsetRejectsBadEntries(t *testing.T) {
	tp := deltaPlant(t)
	good := []affinity.VMEntry{{Node: 0, Type: 0, Count: 2}, {Node: 5, Type: 1, Count: 1}}
	for _, tc := range []struct {
		name string
		bad  affinity.VMEntry
	}{
		{"negative type", affinity.VMEntry{Node: 0, Type: -1, Count: 1}},
		{"type beyond delta", affinity.VMEntry{Node: 0, Type: 2, Count: 1}},
		{"negative node", affinity.VMEntry{Node: -1, Type: 0, Count: 1}},
		{"node beyond plant", affinity.VMEntry{Node: topology.NodeID(tp.Nodes()), Type: 0, Count: 1}},
		{"negative count", affinity.VMEntry{Node: 1, Type: 0, Count: -1}},
	} {
		cur := append([]affinity.VMEntry{tc.bad}, good...)
		if victims, err := ReleaseSubsetSparse(tp, cur, model.Request{1, 0}); err == nil {
			t.Errorf("%s: shrink accepted, victims %v", tc.name, victims)
		}
	}
	victims, err := ReleaseSubsetSparse(tp, good, model.Request{1, 0})
	if err != nil {
		t.Fatalf("valid shrink after rejected ones: %v", err)
	}
	if want := []affinity.VMEntry{{Node: 0, Type: 0, Count: 1}}; !reflect.DeepEqual(victims, want) {
		t.Fatalf("victims %v, want %v", victims, want)
	}
}

// TestDeltaChurnTierIndexLockstep is the grow/shrink churn property test
// of the shrink-path audit: PlaceDeltaSparse, ReleaseSubsetSparse and
// FailNode interleave against a live inventory with an attached tier
// index, and after every mutation the index must agree with a from-
// scratch rebuild (CheckConsistent) and the inventory's conservation
// identities must hold. Tracked cluster state is kept in caller-owned
// entry slices, so any aliasing between the release path and the index
// would surface as divergence.
func TestDeltaChurnTierIndexLockstep(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7700 + trial)))
		tp := deltaPlant(t)
		n := tp.Nodes()
		const m = 2
		caps := make([][]int, n)
		for i := range caps {
			caps[i] = []int{2 + rng.Intn(3), 2 + rng.Intn(3)}
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		tidx, err := inv.AttachTierIndex(tp)
		if err != nil {
			t.Fatal(err)
		}
		h := &OnlineHeuristic{}
		var sp affinity.SparseAlloc
		type cluster struct{ entries []affinity.VMEntry }
		var clusters []*cluster
		failed := []topology.NodeID{}

		check := func(op string, step int) {
			t.Helper()
			if err := tidx.CheckConsistent(); err != nil {
				t.Fatalf("trial %d step %d after %s: tier index inconsistent: %v", trial, step, op, err)
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d after %s: inventory invariants: %v", trial, step, op, err)
			}
		}

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // place a new cluster
				r := randomRequest(rng, m, 3)
				if _, _, err := h.PlaceSparse(tidx, r, &sp); err != nil {
					continue
				}
				entries := append([]affinity.VMEntry(nil), sp.Entries...)
				if err := inv.AllocateList(entries); err != nil {
					t.Fatalf("trial %d step %d: commit: %v", trial, step, err)
				}
				clusters = append(clusters, &cluster{entries: entries})
				check("place", step)
			case op < 6 && len(clusters) > 0: // grow one
				c := clusters[rng.Intn(len(clusters))]
				delta := randomRequest(rng, m, 2)
				dc, _, err := h.PlaceDeltaSparse(tidx, c.entries, delta, &sp)
				if err != nil {
					continue
				}
				grown := append([]affinity.VMEntry(nil), sp.Entries...)
				if err := inv.AllocateList(grown); err != nil {
					t.Fatalf("trial %d step %d: grow commit: %v", trial, step, err)
				}
				c.entries = append(c.entries, grown...)
				// The returned DC must price the merged cluster exactly.
				dense := affinity.NewAllocation(n, m)
				for _, e := range c.entries {
					dense[e.Node][e.Type] += e.Count
				}
				if want, _ := dense.Distance(tp); dc != want {
					t.Fatalf("trial %d step %d: grow DC %v, dense %v", trial, step, dc, want)
				}
				check("grow", step)
			case op < 8 && len(clusters) > 0: // shrink one
				ci := rng.Intn(len(clusters))
				c := clusters[ci]
				vec := make(model.Request, m)
				for _, e := range c.entries {
					vec[e.Type] += e.Count
				}
				delta := make(model.Request, m)
				some := false
				for j := range delta {
					if vec[j] > 0 {
						delta[j] = rng.Intn(vec[j] + 1)
						some = some || delta[j] > 0
					}
				}
				if !some {
					continue
				}
				victims, err := ReleaseSubsetSparse(tp, c.entries, delta)
				if err != nil {
					t.Fatalf("trial %d step %d: shrink: %v", trial, step, err)
				}
				if err := inv.ReleaseList(victims); err != nil {
					t.Fatalf("trial %d step %d: shrink release: %v", trial, step, err)
				}
				// Rebuild the tracked entries minus the victims.
				dense := affinity.NewAllocation(n, m)
				for _, e := range c.entries {
					dense[e.Node][e.Type] += e.Count
				}
				for _, v := range victims {
					dense[v.Node][v.Type] -= v.Count
					if dense[v.Node][v.Type] < 0 {
						t.Fatalf("trial %d step %d: victim %v exceeds cluster", trial, step, v)
					}
				}
				c.entries = dense.Sparse()
				if len(c.entries) == 0 {
					clusters = append(clusters[:ci], clusters[ci+1:]...)
				}
				check("shrink", step)
			case op == 8 && len(failed) < 3: // fail a node
				id := topology.NodeID(rng.Intn(n))
				lost, err := inv.FailNode(id)
				if err != nil {
					continue
				}
				failed = append(failed, id)
				_ = lost
				// Crashed VMs vanish from their clusters, like cloudsim's
				// degrade step.
				for ci := 0; ci < len(clusters); {
					c := clusters[ci]
					kept := c.entries[:0]
					for _, e := range c.entries {
						if e.Node != id {
							kept = append(kept, e)
						}
					}
					c.entries = kept
					if len(c.entries) == 0 {
						clusters = append(clusters[:ci], clusters[ci+1:]...)
						continue
					}
					ci++
				}
				check("fail", step)
			default: // repair
				if len(failed) == 0 {
					continue
				}
				id := failed[len(failed)-1]
				failed = failed[:len(failed)-1]
				if err := inv.RestoreNode(id); err != nil {
					t.Fatalf("trial %d step %d: restore: %v", trial, step, err)
				}
				check("restore", step)
			}
		}
		// Drain everything; the plant must come back fully free.
		for _, c := range clusters {
			if err := inv.ReleaseList(c.entries); err != nil {
				t.Fatalf("trial %d: final release: %v", trial, err)
			}
		}
		check("drain", -1)
	}
}

// TestPlaceDeltaZeroAllocs pins the hot-path contract: once the scratch
// and destination have reached working size, a grow/release cycle
// allocates nothing.
func TestPlaceDeltaZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	tp := deltaPlant(t)
	n := tp.Nodes()
	caps := make([][]int, n)
	for i := range caps {
		caps[i] = []int{4, 4}
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	tidx, err := inv.AttachTierIndex(tp)
	if err != nil {
		t.Fatal(err)
	}
	h := &OnlineHeuristic{}
	var sp, base affinity.SparseAlloc
	if _, _, err := h.PlaceSparse(tidx, model.Request{6, 3}, &base); err != nil {
		t.Fatal(err)
	}
	if err := inv.AllocateList(base.Entries); err != nil {
		t.Fatal(err)
	}
	delta := model.Request{3, 2}
	cycle := func() {
		if _, _, err := h.PlaceDeltaSparse(tidx, base.Entries, delta, &sp); err != nil {
			t.Fatal(err)
		}
		if err := inv.AllocateList(sp.Entries); err != nil {
			t.Fatal(err)
		}
		if err := inv.ReleaseList(sp.Entries); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // size sp and the placer's scratch
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("PlaceDeltaSparse steady state allocates %.2f allocs/op, want 0", avg)
	}
}

// TestReleaseSubsetReusesScratch interleaves one placer's shrinks on two
// plants, with a rejected shrink between rounds, and checks every round
// returns the first round's victims: the placer's kept scratch never
// leaks state from one call, plant or error path into the next.
func TestReleaseSubsetReusesScratch(t *testing.T) {
	small, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	plants := []*topology.Topology{deltaPlant(t), small}
	cur := []affinity.VMEntry{{Node: 0, Type: 0, Count: 3}, {Node: 1, Type: 1, Count: 2}, {Node: 4, Type: 0, Count: 1}, {Node: 5, Type: 1, Count: 1}}
	delta := model.Request{2, 1}
	h := &OnlineHeuristic{}
	var first [][]affinity.VMEntry
	for round := 0; round < 4; round++ {
		for p, tp := range plants {
			got, err := h.ReleaseSubsetSparse(tp, cur, delta)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = append(first, got)
			} else if !reflect.DeepEqual(got, first[p]) {
				t.Fatalf("round %d plant %d: victims %v, first round %v", round, p, got, first[p])
			}
			if _, err := h.ReleaseSubsetSparse(tp, cur, model.Request{9, 0}); err == nil {
				t.Fatal("oversized shrink accepted")
			}
		}
	}
}

// TestReleaseSubsetConcurrentPlacers shrinks through two placers on two
// goroutines at once. Each placer owns its scratch, so every shrink
// returns what fresh scratch returns, and under -race (make
// elastic-race) the run is clean; scratch shared by every placer is a
// data race here, which no single-goroutine test can see.
func TestReleaseSubsetConcurrentPlacers(t *testing.T) {
	tp := deltaPlant(t)
	clusters := [][]affinity.VMEntry{
		{{Node: 0, Type: 0, Count: 3}, {Node: 1, Type: 1, Count: 2}, {Node: 4, Type: 0, Count: 1}, {Node: 13, Type: 1, Count: 1}},
		{{Node: 2, Type: 1, Count: 2}, {Node: 7, Type: 0, Count: 2}, {Node: 9, Type: 0, Count: 1}, {Node: 20, Type: 1, Count: 3}},
	}
	delta := model.Request{2, 1}
	var wg sync.WaitGroup
	for _, cur := range clusters {
		want, err := ReleaseSubsetSparse(tp, cur, delta)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := &OnlineHeuristic{}
			for i := 0; i < 200; i++ {
				if got, err := h.ReleaseSubsetSparse(tp, cur, delta); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("shrink %d by %v of %v = %v (%v), want %v", i, delta, cur, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReleaseSubsetSparseAllocs pins the placer's shrink scratch: at 16k
// nodes a steady-state shrink allocates only the returned victims.
func TestReleaseSubsetSparseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	tp, err := topology.Uniform(10, 40, 40, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	// A cluster spread over two racks of one cloud and a remote node.
	cur := []affinity.VMEntry{
		{Node: 0, Type: 0, Count: 4}, {Node: 0, Type: 2, Count: 1}, {Node: 1, Type: 1, Count: 3},
		{Node: 3, Type: 0, Count: 2}, {Node: 45, Type: 1, Count: 2}, {Node: 46, Type: 2, Count: 2},
		{Node: 9000, Type: 0, Count: 1},
	}
	h := &OnlineHeuristic{}
	for _, delta := range []model.Request{{1, 1, 1}, {4, 2, 2}} {
		shrink := func() {
			if _, err := h.ReleaseSubsetSparse(tp, cur, delta); err != nil {
				t.Fatal(err)
			}
		}
		shrink() // size the scratch
		if avg := testing.AllocsPerRun(100, shrink); avg > 1 {
			t.Errorf("shrink by %v allocates %.2f allocs/op, want ≤ 1 (the victims)", delta, avg)
		}
	}
}
