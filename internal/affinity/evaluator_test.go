package affinity

import (
	"math"
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

func evalPlant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(2, 3, 5, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// checkAgainstScratch asserts the evaluator agrees with the from-scratch
// Allocation methods — value AND central node — exactly (integer tiers).
func checkAgainstScratch(t *testing.T, tp *topology.Topology, e *DistanceEvaluator, a Allocation, step int) {
	t.Helper()
	wantD, wantK := a.Distance(tp)
	gotD, gotK := e.Distance()
	if gotD != wantD || gotK != wantK {
		t.Fatalf("step %d: evaluator (%v, %d) != scratch (%v, %d)\nalloc %v", step, gotD, gotK, wantD, wantK, a)
	}
	if got, want := e.total, a.TotalVMs(); got != want {
		t.Fatalf("step %d: total %d != %d", step, got, want)
	}
}

// TestEvaluatorEquivalenceRandomWalk applies long random Add/Remove/Move
// sequences and asserts the incremental evaluator agrees with the
// from-scratch Definition 1 computation at every step.
func TestEvaluatorEquivalenceRandomWalk(t *testing.T) {
	tp := evalPlant(t)
	n := tp.Nodes()
	const m = 3
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocation(n, m)
		e := NewDistanceEvaluator(tp, a)
		checkAgainstScratch(t, tp, e, a, -1)
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || a.TotalVMs() == 0: // Add
				i := topology.NodeID(rng.Intn(n))
				vt := model.VMTypeID(rng.Intn(m))
				a.Add(i, vt)
				e.Add(i)
			case op == 1: // Remove
				hosts := a.HostingNodes()
				i := hosts[rng.Intn(len(hosts))]
				vt := anyTypeOn(a, i)
				a.Remove(i, vt)
				e.Remove(i)
			default: // Move
				hosts := a.HostingNodes()
				p := hosts[rng.Intn(len(hosts))]
				q := topology.NodeID(rng.Intn(n))
				vt := anyTypeOn(a, p)
				// Preview before mutating: must equal the post-move scratch.
				prevD, prevK := e.MovePreview(p, q)
				a.Remove(p, vt)
				a.Add(q, vt)
				e.Move(p, q)
				if d, k := a.Distance(tp); prevD != d || prevK != k {
					t.Fatalf("seed %d step %d: MovePreview(%d,%d) = (%v, %d), post-move scratch (%v, %d)",
						seed, step, p, q, prevD, prevK, d, k)
				}
			}
			checkAgainstScratch(t, tp, e, a, step)
		}
	}
}

func anyTypeOn(a Allocation, i topology.NodeID) model.VMTypeID {
	for j, k := range a[i] {
		if k > 0 {
			return model.VMTypeID(j)
		}
	}
	panic("no VM on node")
}

// TestEvaluatorPreviewDoesNotMutate prices many moves and additions and
// verifies the evaluator state is untouched.
func TestEvaluatorPreviewDoesNotMutate(t *testing.T) {
	tp := evalPlant(t)
	rng := rand.New(rand.NewSource(42))
	a := NewAllocation(tp.Nodes(), 2)
	e := NewDistanceEvaluator(tp, nil)
	for i := 0; i < 12; i++ {
		node := topology.NodeID(rng.Intn(tp.Nodes()))
		a.Add(node, 0)
		e.Add(node)
	}
	d0, k0 := e.Distance()
	hosts := a.HostingNodes()
	for trial := 0; trial < 200; trial++ {
		p := hosts[rng.Intn(len(hosts))]
		q := topology.NodeID(rng.Intn(tp.Nodes()))
		e.MovePreview(p, q)
		e.AddPreview(q)
	}
	if d1, k1 := e.Distance(); d1 != d0 || k1 != k0 {
		t.Fatalf("preview mutated evaluator: (%v, %d) → (%v, %d)", d0, k0, d1, k1)
	}
	checkAgainstScratch(t, tp, e, a, 0)
}

// TestEvaluatorFractionalDistances exercises non-integer tiers, where
// incremental float accumulation may drift: agreement must hold within a
// tight tolerance and the central node must match.
func TestEvaluatorFractionalDistances(t *testing.T) {
	tp, err := topology.Uniform(2, 3, 4, topology.Distances{SameNode: 0, SameRack: 0.3, CrossRack: 1.1, CrossCloud: 2.7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a := NewAllocation(tp.Nodes(), 2)
	e := NewDistanceEvaluator(tp, nil)
	for step := 0; step < 500; step++ {
		if a.TotalVMs() == 0 || rng.Intn(2) == 0 {
			i := topology.NodeID(rng.Intn(tp.Nodes()))
			a.Add(i, 0)
			e.Add(i)
		} else {
			hosts := a.HostingNodes()
			i := hosts[rng.Intn(len(hosts))]
			a.Remove(i, 0)
			e.Remove(i)
		}
		wantD, _ := a.Distance(tp)
		gotD, _ := e.Distance()
		if math.Abs(wantD-gotD) > 1e-9 {
			t.Fatalf("step %d: drift %v vs %v", step, gotD, wantD)
		}
	}
}

// TestEvaluatorResetAndEmpty covers the empty-cluster conventions and
// reset reuse.
func TestEvaluatorResetAndEmpty(t *testing.T) {
	tp := evalPlant(t)
	e := NewDistanceEvaluator(tp, nil)
	if d, k := e.Distance(); d != 0 || k != -1 {
		t.Fatalf("empty evaluator: (%v, %d)", d, k)
	}
	a := NewAllocation(tp.Nodes(), 2)
	a.Add(3, 0)
	a.Add(17, 1)
	a.Add(17, 1)
	e.reset(a)
	checkAgainstScratch(t, tp, e, a, 0)
	// Drain back to empty through the incremental path.
	e.Remove(3)
	e.Remove(17)
	e.Remove(17)
	if d, k := e.Distance(); d != 0 || k != -1 {
		t.Fatalf("drained evaluator: (%v, %d)", d, k)
	}
	if len(e.hosts) != 0 {
		t.Fatalf("hosts not empty: %v", e.hosts)
	}
}

// TestEvaluatorPanicsOnEmptySource: Remove, Move and MovePreview from a
// node that hosts none of the cluster's VMs panic before they touch any
// total. bestCenter prices only the hosts and takes the moved VM off p's
// rack and cloud totals, so a desynchronized caller would otherwise be
// handed the DC of a cluster with a negative load somewhere.
func TestEvaluatorPanicsOnEmptySource(t *testing.T) {
	tp := evalPlant(t)
	a := NewAllocation(tp.Nodes(), 1)
	a.Add(3, 0)
	a.Add(17, 0)
	for _, tc := range []struct {
		name string
		call func(e *DistanceEvaluator)
	}{
		{"Remove", func(e *DistanceEvaluator) { e.Remove(4) }},
		{"Move", func(e *DistanceEvaluator) { e.Move(4, 3) }},
		{"MovePreview", func(e *DistanceEvaluator) { e.MovePreview(4, 17) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewDistanceEvaluator(tp, a)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s from empty node 4 did not panic", tc.name)
				}
				checkAgainstScratch(t, tp, e, a, 0)
			}()
			tc.call(e)
		})
	}
}

// TestDistanceOfMatchesAllocation checks the one-shot host/weight path
// against the matrix path, including unsorted host order.
func TestDistanceOfMatchesAllocation(t *testing.T) {
	tp := evalPlant(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		a := NewAllocation(tp.Nodes(), 2)
		w := make([]int, tp.Nodes())
		var hosts []topology.NodeID
		for i := 0; i < 1+rng.Intn(9); i++ {
			node := topology.NodeID(rng.Intn(tp.Nodes()))
			a.Add(node, 0)
			if w[node] == 0 {
				hosts = append(hosts, node)
			}
			w[node]++
		}
		// Shuffle hosts: DistanceOf must still tie-break toward lowest ID.
		rng.Shuffle(len(hosts), func(x, y int) { hosts[x], hosts[y] = hosts[y], hosts[x] })
		wantD, wantK := a.Distance(tp)
		gotD, gotK := DistanceOf(tp, hosts, w)
		if gotD != wantD || gotK != wantK {
			t.Fatalf("trial %d: DistanceOf (%v, %d) != Distance (%v, %d)", trial, gotD, gotK, wantD, wantK)
		}
	}
	if d, k := DistanceOf(tp, nil, nil); d != 0 || k != -1 {
		t.Fatalf("empty DistanceOf: (%v, %d)", d, k)
	}
}

// TestEvaluatorAddPreview prices hypothetical single-VM additions at every
// node over a random walk and asserts each preview equals the post-add
// from-scratch computation — value AND central node — without mutating the
// evaluator. Includes the empty-cluster case (first VM anywhere is DC 0).
func TestEvaluatorAddPreview(t *testing.T) {
	tp := evalPlant(t)
	n := tp.Nodes()
	const m = 2
	rng := rand.New(rand.NewSource(7))
	a := NewAllocation(n, m)
	e := NewDistanceEvaluator(tp, a)
	for step := 0; step < 120; step++ {
		q := topology.NodeID(rng.Intn(n))
		prevD, prevK := e.AddPreview(q)
		d0, k0 := e.Distance()
		if d1, k1 := e.Distance(); d1 != d0 || k1 != k0 {
			t.Fatalf("step %d: AddPreview mutated evaluator", step)
		}
		vt := model.VMTypeID(rng.Intn(m))
		a.Add(q, vt)
		wantD, wantK := a.Distance(tp)
		a.Remove(q, vt)
		if prevD != wantD || prevK != wantK {
			t.Fatalf("step %d: AddPreview(%d) = (%v, %d), post-add scratch (%v, %d)",
				step, q, prevD, prevK, wantD, wantK)
		}
		// Walk: sometimes commit the add, sometimes remove something.
		if rng.Intn(3) > 0 || a.TotalVMs() == 0 {
			a.Add(q, vt)
			e.Add(q)
		} else {
			hosts := a.HostingNodes()
			i := hosts[rng.Intn(len(hosts))]
			a.Remove(i, anyTypeOn(a, i))
			e.Remove(i)
		}
		checkAgainstScratch(t, tp, e, a, step)
	}
}

// TestDistanceScratchMatchesDistanceOf reuses one scratch across random
// clusters and two plants of different shape: every call must equal the
// one-shot DistanceOf (so the scratch is left clean between calls), and
// once grown the scratch form allocates nothing.
func TestDistanceScratchMatchesDistanceOf(t *testing.T) {
	small := evalPlant(t)
	big, err := topology.Uniform(3, 4, 5, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	var s DistanceScratch
	for trial := 0; trial < 200; trial++ {
		tp := small
		if trial%3 == 0 {
			tp = big
		}
		w := make([]int, tp.Nodes())
		var hosts []topology.NodeID
		for i := 0; i < 1+rng.Intn(12); i++ {
			node := topology.NodeID(rng.Intn(tp.Nodes()))
			if w[node] == 0 {
				hosts = append(hosts, node)
			}
			w[node] += 1 + rng.Intn(3)
		}
		wantD, wantK := DistanceOf(tp, hosts, w)
		gotD, gotK := s.DistanceOf(tp, hosts, w)
		if gotD != wantD || gotK != wantK {
			t.Fatalf("trial %d: scratch (%v, %d) != DistanceOf (%v, %d)", trial, gotD, gotK, wantD, wantK)
		}
	}
	if d, k := s.DistanceOf(big, nil, nil); d != 0 || k != -1 {
		t.Fatalf("empty scratch DistanceOf: (%v, %d)", d, k)
	}
	hosts := []topology.NodeID{0, 7, 8, 30, 59}
	w := make([]int, big.Nodes())
	for i, h := range hosts {
		w[h] = i + 1
	}
	if avg := testing.AllocsPerRun(100, func() { s.DistanceOf(big, hosts, w) }); avg != 0 {
		t.Fatalf("scratch DistanceOf allocates %v per call, want 0", avg)
	}
}
