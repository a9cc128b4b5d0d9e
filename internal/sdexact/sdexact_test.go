package sdexact

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

func twoRacks(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestSolveSDLPCrafted pins the oracle on hand-checked plants of two
// racks × two nodes: a request one node covers costs 0, even when another
// rack could hold it only split (center = the covering node); a request
// no node covers splits at cost d1 in a rack or d2 across racks, both 2;
// and one past the plant's capacity is ErrInfeasible.
func TestSolveSDLPCrafted(t *testing.T) {
	tp := twoRacks(t)
	cases := []struct {
		name   string
		l      [][]int
		r      model.Request
		dist   float64
		center topology.NodeID // checked when ≥ 0
	}{
		{"single node fits", [][]int{{5, 5, 5}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}, model.Request{2, 2, 1}, 0, 0},
		{"remote node fits", [][]int{{3, 0}, {2, 0}, {5, 0}, {0, 0}}, model.Request{5, 0}, 0, 2},
		{"split", [][]int{{3, 0}, {2, 0}, {4, 0}, {0, 0}}, model.Request{5, 0}, 2, -1},
	}
	for _, tc := range cases {
		res, err := SolveSDLP(tp, tc.l, tc.r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Distance != tc.dist || (tc.center >= 0 && res.Center != tc.center) {
			t.Errorf("%s: distance %v at center %d, want %v at %d", tc.name, res.Distance, res.Center, tc.dist, tc.center)
		}
		if err := res.Alloc.Validate(tc.r, tc.l); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	l := [][]int{{1, 0}, {0, 0}, {0, 0}, {0, 0}}
	if _, err := SolveSDLP(tp, l, model.Request{2, 0}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SolveSDLP err = %v, want ErrInfeasible", err)
	}
}

// TestExactSolversBadShape: a capacity matrix that does not match the
// plant or the request's width is a shape error from both solvers
// (SolveSDLP, SolveGSD) — never a panic, and never ErrInfeasible, which
// callers read as "does not fit".
func TestExactSolversBadShape(t *testing.T) {
	tp := twoRacks(t)
	full := [][]int{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	cases := []struct {
		name string
		l    [][]int
		r    model.Request
	}{
		{"short matrix", [][]int{{1, 0}}, model.Request{1, 0}},
		{"wide request", full, model.Request{1, 1, 1}},
		{"narrow request", full, model.Request{1}},
		{"ragged matrix", [][]int{{1, 1}, {1}, {1, 1}, {1, 1}}, model.Request{1, 1}},
	}
	for _, tc := range cases {
		_, errLP := SolveSDLP(tp, tc.l, tc.r)
		_, errGSD := SolveGSD(tp, tc.l, []model.Request{tc.r})
		for i, err := range []error{errLP, errGSD} {
			if err == nil || errors.Is(err, ErrInfeasible) {
				t.Errorf("%s, solver %d: err = %v, want a shape error", tc.name, i, err)
			}
		}
	}
}

// TestExactSolversRejectNegatives: a negative demand or capacity cell is
// malformed input for every solver, refused with an error that does not
// wrap ErrInfeasible, even where a sum hides it. The batch {-1, 2} +
// {1, 0} sums to {0, 2}, and a -1 cell cuts its column's total to 1
// where two nodes hold one VM each. SolveSDLP runs on the
// single-request cases only.
func TestExactSolversRejectNegatives(t *testing.T) {
	tp, err := topology.Uniform(1, 1, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	ones := [][]int{{1, 1}, {1, 1}, {1, 1}}
	cases := []struct {
		name  string
		l     [][]int
		batch []model.Request
	}{
		{"negative demand", ones, []model.Request{{-1, 2}}},
		{"negative demand netted in a batch", ones, []model.Request{{-1, 2}, {1, 0}}},
		{"negative demand in a later request", ones, []model.Request{{1, 0}, {-1, 2}}},
		{"negative cell", [][]int{{-1}, {1}, {1}}, []model.Request{{2}}},
	}
	for _, tc := range cases {
		var errs []error
		if len(tc.batch) == 1 {
			_, errLP := SolveSDLP(tp, tc.l, tc.batch[0])
			errs = append(errs, errLP)
		}
		_, errGSD := SolveGSD(tp, tc.l, tc.batch)
		errs = append(errs, errGSD)
		for i, err := range errs {
			if err == nil || errors.Is(err, ErrInfeasible) {
				t.Errorf("%s, solver %d of %d: err = %v, want a malformed-input error", tc.name, i, len(errs), err)
			}
		}
	}
}

// TestExactSolversRejectCapacityOverflow: a capacity matrix whose cells
// sum past math.MaxInt is malformed input for both solvers, refused with
// model.ErrCapacityOverflow and not read as ErrInfeasible, as Algorithm 1
// refuses it. Two cells of 9e18 hold a request of 5 many times over.
func TestExactSolversRejectCapacityOverflow(t *testing.T) {
	tp, err := topology.Uniform(1, 1, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	l := [][]int{{9e18}, {9e18}}
	_, errLP := SolveSDLP(tp, l, model.Request{5})
	_, errGSD := SolveGSD(tp, l, []model.Request{{5}})
	for i, err := range []error{errLP, errGSD} {
		if !errors.Is(err, model.ErrCapacityOverflow) || errors.Is(err, ErrInfeasible) {
			t.Errorf("solver %d: err = %v, want model.ErrCapacityOverflow", i, err)
		}
	}
}

// exactPlants are the plants the exact cross-checks run on: one cloud,
// and two clouds, where CrossCloud must rank behind CrossRack.
func exactPlants(t *testing.T, racks, nodes int) []*topology.Topology {
	t.Helper()
	var plants []*topology.Topology
	for clouds := 1; clouds <= 2; clouds++ {
		tp, err := topology.Uniform(clouds, racks, nodes, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		plants = append(plants, tp)
	}
	return plants
}

func randInstance(r *rand.Rand, tp *topology.Topology, m int) ([][]int, model.Request) {
	n := tp.Nodes()
	l := make([][]int, n)
	avail := make([]int, m)
	for i := range l {
		l[i] = make([]int, m)
		for j := range l[i] {
			l[i][j] = r.Intn(4)
			avail[j] += l[i][j]
		}
	}
	req := make(model.Request, m)
	for j := range req {
		if avail[j] > 0 {
			req[j] = r.Intn(avail[j] + 1)
		}
	}
	if model.Sum(req) == 0 {
		// Force at least one VM if anything is available anywhere.
		for j := range req {
			if avail[j] > 0 {
				req[j] = 1
				break
			}
		}
	}
	return l, req
}

// bruteForceSD enumerates all allocations for tiny instances.
func bruteForceSD(tp *topology.Topology, l [][]int, req model.Request) float64 {
	n := tp.Nodes()
	m := len(req)
	best := math.Inf(1)
	alloc := affinity.NewAllocation(n, m)
	var rec func(j int)
	var fill func(j, i, left int)
	fill = func(j, i, left int) {
		if i == n {
			if left == 0 {
				rec(j + 1)
			}
			return
		}
		maxTake := l[i][j]
		if left < maxTake {
			maxTake = left
		}
		for take := 0; take <= maxTake; take++ {
			alloc[i][j] = take
			fill(j, i+1, left-take)
		}
		alloc[i][j] = 0
	}
	rec = func(j int) {
		if j == m {
			if d, _ := alloc.Distance(tp); d < best {
				best = d
			}
			return
		}
		fill(j, 0, req[j])
	}
	rec(0)
	return best
}

// Property: the per-center simplex matches brute force on tiny
// instances.
func TestQuickSolveSDLPMatchesBruteForce(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l, req := randInstance(r, tp, 2)
		if model.Sum(req) == 0 {
			return true // nothing available anywhere: skip
		}
		res, err := SolveSDLP(tp, l, req)
		if err != nil {
			return errors.Is(err, ErrInfeasible)
		}
		if err := res.Alloc.Validate(req, l); err != nil {
			return false
		}
		want := bruteForceSD(tp, l, req)
		return math.Abs(res.Distance-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the min-cost-flow and LP transportation backends of the GSD
// leaf solver produce the same total, on one cloud and on two.
func TestQuickGSDTransportationBackendsAgree(t *testing.T) {
	for _, tp := range exactPlants(t, 2, 2) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			n := tp.Nodes()
			l := make([][]int, n)
			totalCap := 0
			for i := range l {
				l[i] = []int{1 + r.Intn(3)}
				totalCap += l[i][0]
			}
			reqs := []model.Request{{1 + r.Intn(3)}, {1 + r.Intn(3)}}
			if reqs[0][0]+reqs[1][0] > totalCap {
				return true
			}
			centers := []topology.NodeID{
				topology.NodeID(r.Intn(n)),
				topology.NodeID(r.Intn(n)),
			}
			a1, t1, ok1 := solveTransportation(tp, l, reqs, centers)
			a2, t2, ok2 := solveTransportationLP(tp, l, reqs, centers)
			if ok1 != ok2 {
				return false
			}
			if !ok1 {
				return true
			}
			// Alternative optima can differ in their re-minimized DC totals,
			// but the fixed-center transportation objective must agree.
			fixedCost := func(allocs []affinity.Allocation) float64 {
				total := 0.0
				for q, a := range allocs {
					total += a.DistanceFrom(tp, centers[q])
				}
				return total
			}
			if math.Abs(fixedCost(a1)-fixedCost(a2)) > 1e-6 {
				return false
			}
			// And each backend's reported DC total must not exceed its own
			// fixed-center cost.
			if t1 > fixedCost(a1)+1e-9 || t2 > fixedCost(a2)+1e-9 {
				return false
			}
			for q := range a1 {
				if !a1[q].Satisfies(reqs[q]) || !a2[q].Satisfies(reqs[q]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%d clouds: %v", tp.Clouds(), err)
		}
	}
}

func TestSolveGSDEmptyAndInfeasible(t *testing.T) {
	tp := twoRacks(t)
	res, err := SolveGSD(tp, [][]int{{1}, {0}, {0}, {0}}, nil)
	if err != nil || res.Total != 0 {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	l := [][]int{{1, 0}, {0, 0}, {0, 0}, {0, 0}}
	_, err = SolveGSD(tp, l, []model.Request{{1, 0}, {1, 0}})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveGSDPacksBothRequests(t *testing.T) {
	tp := twoRacks(t)
	// Two nodes in each rack with 2 slots each; two requests of 2 VMs.
	l := [][]int{
		{2, 0},
		{2, 0},
		{2, 0},
		{2, 0},
	}
	reqs := []model.Request{{2, 0}, {2, 0}}
	res, err := SolveGSD(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Each request fits on a single node → total distance 0.
	if res.Total != 0 {
		t.Errorf("GSD total = %v, want 0", res.Total)
	}
	for q, a := range res.Allocs {
		if !a.Satisfies(reqs[q]) {
			t.Errorf("request %d not satisfied: %v", q, a)
		}
	}
}

func TestSolveGSDBeatsGreedySequential(t *testing.T) {
	tp := twoRacks(t)
	// Crafted contention: sequential greedy for request A would grab the
	// big node and force B to straddle racks; the global optimum avoids it.
	// Node 0: 3 slots, node 1: 1 slot (rack 0); node 2: 2, node 3: 2 (rack 1).
	l := [][]int{
		{3, 0},
		{1, 0},
		{2, 0},
		{2, 0},
	}
	reqs := []model.Request{{4, 0}, {4, 0}}
	res, err := SolveGSD(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: A = 3+1 in rack 0 (distance d1 = 1), B = 2+2 in rack 1
	// (distance 2·d1 = 2). Total 3.
	if res.Total != 3 {
		t.Errorf("GSD total = %v, want 3", res.Total)
	}
	// Combined usage must respect capacities.
	for i := 0; i < tp.Nodes(); i++ {
		used := 0
		for _, a := range res.Allocs {
			used += a.VMsOnNode(topology.NodeID(i))
		}
		if used > model.Sum(l[i]) {
			t.Errorf("node %d over-used: %d > %d", i, used, model.Sum(l[i]))
		}
	}
}

func TestSolveGSDTruncation(t *testing.T) {
	tp, err := topology.Uniform(1, 3, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	n := tp.Nodes()
	l := make([][]int, n)
	for i := range l {
		l[i] = []int{1}
	}
	reqs := []model.Request{{2}, {2}, {2}}
	// The first leaf's total exceeds the summed per-request bounds, so a
	// single-leaf budget runs out and must report truncation with a usable
	// incumbent.
	res, err := solveGSD(tp, l, reqs, 1)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if res == nil {
		t.Fatal("no incumbent returned")
	}
	if len(res.Allocs) != 3 {
		t.Fatalf("incumbent has %d allocations", len(res.Allocs))
	}
}
