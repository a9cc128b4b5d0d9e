package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
)

func twoRacks(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func paperPlant(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.PaperSimPlant()
}

// randCapacity builds a random L on the plant.
func randCapacity(r *rand.Rand, n, m, maxPer int) [][]int {
	l := make([][]int, n)
	for i := range l {
		l[i] = make([]int, m)
		for j := range l[i] {
			l[i][j] = r.Intn(maxPer + 1)
		}
	}
	return l
}

func TestOnlineHeuristicSingleNodeFastPath(t *testing.T) {
	tp := twoRacks(t)
	l := randCapacity(rand.New(rand.NewSource(1)), tp.Nodes(), 2, 0)
	l[4] = []int{5, 5}
	h := &OnlineHeuristic{}
	alloc, err := h.Place(tp, l, model.Request{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := alloc.Distance(tp); d != 0 {
		t.Errorf("distance = %v, want 0", d)
	}
	if alloc.VMsOnNode(4) != 5 {
		t.Errorf("expected all VMs on node 4, got %v", alloc)
	}
}

func TestOnlineHeuristicAdmissionCheck(t *testing.T) {
	tp := twoRacks(t)
	l := randCapacity(rand.New(rand.NewSource(1)), tp.Nodes(), 2, 1)
	err := (&OnlineHeuristic{}).Place2Err(tp, l, model.Request{100, 0})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

// Place2Err is a test helper exercising the error path without caring
// about the allocation.
func (h *OnlineHeuristic) Place2Err(tp *topology.Topology, l [][]int, r model.Request) error {
	_, err := h.Place(tp, l, r)
	return err
}

func TestOnlineHeuristicBadShape(t *testing.T) {
	tp := twoRacks(t)
	if _, err := (&OnlineHeuristic{}).Place(tp, [][]int{{1, 1}}, model.Request{1, 0}); err == nil {
		t.Error("short capacity matrix accepted")
	}
}

// TestPlacersRejectMalformedShapes: a capacity matrix that is not
// n×len(r) — too few rows, a wider or narrower request, or a ragged
// row — is a shape error from every dense placer. It must not panic,
// must not read as ErrInsufficient (cloudsim would queue instead of
// failing), and must leave L untouched.
func TestPlacersRejectMalformedShapes(t *testing.T) {
	tp := twoRacks(t)
	square := func() [][]int { return [][]int{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}} }
	ragged := func() [][]int { return [][]int{{1, 1}, {1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}} }
	short := func() [][]int { return [][]int{{1, 1}, {1, 1}} }
	shapes := []struct {
		name string
		l    func() [][]int
		r    model.Request
	}{
		{"short matrix", short, model.Request{1, 1}},
		{"wide request", square, model.Request{1, 1, 1}},
		{"narrow request", square, model.Request{1}},
		{"ragged matrix", ragged, model.Request{1, 1}},
	}
	for _, p := range []Placer{
		&OnlineHeuristic{},
		&OnlineHeuristic{Policy: ExhaustiveCenters},
		&Random{Rand: rand.New(rand.NewSource(1))},
		FirstFit{},
		RoundRobinStripe{},
		PackBestFit{},
	} {
		for _, sh := range shapes {
			l := sh.l()
			snapshot := cloneMatrix(l)
			alloc, err := p.Place(tp, l, sh.r)
			if err == nil || errors.Is(err, ErrInsufficient) {
				t.Errorf("%s, %s: (%v, %v), want a shape error", p.Name(), sh.name, alloc, err)
			}
			if !reflect.DeepEqual(l, snapshot) {
				t.Errorf("%s, %s: Place mutated L", p.Name(), sh.name)
			}
		}
	}
	for _, sh := range shapes {
		if _, err := (&GlobalSubOpt{}).PlaceBatch(tp, sh.l(), []model.Request{sh.r}); err == nil || errors.Is(err, ErrInsufficient) {
			t.Errorf("PlaceBatch, %s: err = %v, want a shape error", sh.name, err)
		}
		if _, err := PlaceSequential(tp, sh.l(), []model.Request{sh.r}, &OnlineHeuristic{}); err == nil || errors.Is(err, ErrInsufficient) {
			t.Errorf("PlaceSequential, %s: err = %v, want a shape error", sh.name, err)
		}
	}
}

func TestOnlineHeuristicPrefersRackLocality(t *testing.T) {
	tp := twoRacks(t)
	// Rack 0 (nodes 0,1,2) can host the request across two nodes; rack 1
	// would need three nodes. The heuristic must stay in rack 0.
	l := [][]int{
		{3, 0}, {2, 0}, {0, 0},
		{2, 0}, {2, 0}, {1, 0},
	}
	alloc, err := (&OnlineHeuristic{}).Place(tp, l, model.Request{5, 0})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := alloc.Distance(tp)
	// 3+2 in rack 0, center = node 0: 2·d1 = 2.
	if d != 2 {
		t.Errorf("distance = %v, want 2 (alloc %v)", d, alloc)
	}
	if alloc.VMsOnNode(0) != 3 || alloc.VMsOnNode(1) != 2 {
		t.Errorf("allocation not rack-packed: %v", alloc)
	}
}

func TestOnlineHeuristicValidAllocations(t *testing.T) {
	tp := paperPlant(t)
	r := rand.New(rand.NewSource(42))
	h := &OnlineHeuristic{}
	for trial := 0; trial < 50; trial++ {
		l := randCapacity(r, tp.Nodes(), 3, 3)
		req := model.Request{r.Intn(5), r.Intn(5), r.Intn(3)}
		if model.Sum(req) == 0 {
			req[0] = 1
		}
		alloc, err := h.Place(tp, l, req)
		if err != nil {
			if errors.Is(err, ErrInsufficient) {
				continue
			}
			t.Fatal(err)
		}
		if verr := alloc.Validate(req, l); verr != nil {
			t.Fatalf("trial %d: %v", trial, verr)
		}
	}
}

// Property: Algorithm 1 returns the SD optimum. With the center k fixed,
// its build fills each type nearest-first, which costs the optimum with
// k fixed, so the scan's minimum over centers is SD* (DESIGN.md §9). Both
// center policies must equal SolveSDLP's optimum, and agree with it on
// which draws are infeasible, on plants of 1–5 clouds × 1–4 racks × 1–4
// nodes with 1–3 types, cells of 0–2 and demands of 0–6.
func TestQuickAlgorithm1MatchesSDOptimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tp, err := topology.Uniform(1+r.Intn(5), 1+r.Intn(4), 1+r.Intn(4), topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		l := randCapacity(r, tp.Nodes(), 1+r.Intn(3), 2)
		req := make(model.Request, len(l[0]))
		for j := range req {
			req[j] = r.Intn(7)
		}
		exact, errEx := sdexact.SolveSDLP(tp, l, req)
		for _, h := range []*OnlineHeuristic{{}, {Policy: ExhaustiveCenters}} {
			alloc, errH := h.Place(tp, l, req)
			if errEx != nil || errH != nil {
				if !errors.Is(errEx, sdexact.ErrInfeasible) || !errors.Is(errH, ErrInsufficient) {
					t.Logf("seed %d, %s: %v; SolveSDLP: %v", seed, h.Name(), errH, errEx)
					return false
				}
				continue
			}
			if d, _ := alloc.Distance(tp); d != exact.Distance || alloc.Validate(req, l) != nil {
				t.Logf("seed %d, %s: distance %v, optimum %v\nL %v\nR %v", seed, h.Name(), d, exact.Distance, l, req)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGlobalSubOptNeverWorseThanSequential(t *testing.T) {
	tp := paperPlant(t)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		l := randCapacity(r, tp.Nodes(), 3, 4)
		var reqs []model.Request
		for q := 0; q < 5; q++ {
			reqs = append(reqs, model.Request{1 + r.Intn(3), r.Intn(3), r.Intn(2)})
		}
		seq, err := PlaceSequential(tp, l, reqs, &OnlineHeuristic{})
		if err != nil {
			t.Fatal(err)
		}
		g := &GlobalSubOpt{}
		glob, err := g.PlaceBatch(tp, l, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if glob.Failed != seq.Failed {
			continue // different admission outcomes aren't comparable
		}
		if glob.Total > seq.Total+1e-9 {
			t.Errorf("trial %d: global %.2f worse than sequential %.2f", trial, glob.Total, seq.Total)
		}
	}
}

func TestGlobalSubOptRespectsCapacity(t *testing.T) {
	tp := twoRacks(t)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		l := randCapacity(r, tp.Nodes(), 2, 3)
		reqs := []model.Request{
			{1 + r.Intn(3), r.Intn(2)},
			{1 + r.Intn(3), r.Intn(2)},
			{1 + r.Intn(2), r.Intn(2)},
		}
		g := &GlobalSubOpt{}
		res, err := g.PlaceBatch(tp, l, reqs)
		if err != nil {
			t.Fatal(err)
		}
		// Combined occupancy per node/type must respect L, and each placed
		// request must be exactly satisfied.
		for i := 0; i < tp.Nodes(); i++ {
			for j := 0; j < 2; j++ {
				used := 0
				for _, a := range res.Allocs {
					if a != nil {
						used += a[i][j]
					}
				}
				if used > l[i][j] {
					t.Fatalf("trial %d: node %d type %d over capacity (%d > %d)", trial, i, j, used, l[i][j])
				}
			}
		}
		for q, a := range res.Allocs {
			if a != nil && !a.Satisfies(reqs[q]) {
				t.Fatalf("trial %d: request %d mutated to %v, want %v", trial, q, a.Vector(), reqs[q])
			}
		}
	}
}

func TestGlobalSubOptImprovesContendedBatch(t *testing.T) {
	tp := twoRacks(t)
	// Sequential greedy makes request A grab node 0 (3 slots) + node 1,
	// leaving B to straddle racks. The exchange phase must help.
	l := [][]int{
		{3, 0}, {1, 0}, {0, 0},
		{2, 0}, {2, 0}, {0, 0},
	}
	reqs := []model.Request{{4, 0}, {4, 0}}
	seq, err := PlaceSequential(tp, l, reqs, &OnlineHeuristic{})
	if err != nil {
		t.Fatal(err)
	}
	g := &GlobalSubOpt{}
	glob, err := g.PlaceBatch(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if glob.Total > seq.Total {
		t.Fatalf("global %.2f > sequential %.2f", glob.Total, seq.Total)
	}
	// Exact optimum for reference: A in rack 0 (3+1 → d1), B in rack 1
	// (2+2 → 2·d1) → 3.
	exact, err := sdexact.SolveGSD(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if glob.Total < exact.Total-1e-9 {
		t.Fatalf("global %.2f beats exact optimum %.2f — bookkeeping bug", glob.Total, exact.Total)
	}
}

// Property: global sub-optimization stays sandwiched between the exact GSD
// optimum and the sequential heuristic.
func TestQuickGlobalSandwich(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randCapacity(r, tp.Nodes(), 1, 4)
		reqs := []model.Request{{1 + r.Intn(3)}, {1 + r.Intn(3)}}
		total := 0
		for i := range l {
			total += l[i][0]
		}
		if reqs[0][0]+reqs[1][0] > total {
			return true
		}
		exact, errE := sdexact.SolveGSD(tp, l, reqs)
		if errE != nil {
			return false
		}
		g := &GlobalSubOpt{}
		glob, errG := g.PlaceBatch(tp, l, reqs)
		if errG != nil || glob.Failed > 0 {
			return false
		}
		seq, errS := PlaceSequential(tp, l, reqs, &OnlineHeuristic{})
		if errS != nil || seq.Failed > 0 {
			return false
		}
		return glob.Total >= exact.Total-1e-9 && glob.Total <= seq.Total+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGlobalSubOptSinglePassAblation(t *testing.T) {
	tp := paperPlant(t)
	r := rand.New(rand.NewSource(5))
	l := randCapacity(r, tp.Nodes(), 3, 3)
	var reqs []model.Request
	for q := 0; q < 8; q++ {
		reqs = append(reqs, model.Request{1 + r.Intn(3), r.Intn(3), r.Intn(2)})
	}
	one := &GlobalSubOpt{MaxPasses: 1}
	fix := &GlobalSubOpt{}
	r1, err := one.PlaceBatch(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fix.PlaceBatch(tp, l, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Total > r1.Total+1e-9 {
		t.Errorf("fixpoint (%v) worse than single pass (%v)", rf.Total, r1.Total)
	}
	if r1.Passes != 1 {
		t.Errorf("single pass executed %d passes", r1.Passes)
	}
}

// TestGlobalSubOptPassCap: MaxPasses k stops the exchange after k
// passes, the total never rises with k, and a cap at or above the
// fixpoint's pass count returns the fixpoint itself. Some instances must
// need three or more passes, or a cap of 2 shows nothing.
func TestGlobalSubOptPassCap(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	deep := 0
	for inst := 0; inst < 200; inst++ {
		tp, caps, reqs := exchangeInstance(t, rng, inst)
		fix, err := (&GlobalSubOpt{}).PlaceBatch(tp, caps, reqs)
		if err != nil {
			t.Fatalf("instance %d: PlaceBatch: %v", inst, err)
		}
		if fix.Passes >= 3 {
			deep++
		}
		prev := math.Inf(1)
		for k := 1; k <= 4; k++ {
			got, err := (&GlobalSubOpt{MaxPasses: k}).PlaceBatch(tp, caps, reqs)
			if err != nil {
				t.Fatalf("instance %d: PlaceBatch: %v", inst, err)
			}
			name := fmt.Sprintf("instance %d, MaxPasses %d", inst, k)
			if k >= fix.Passes {
				checkBatch(t, name, got, fix)
			} else if got.Passes != k {
				t.Fatalf("%s: %d passes, the fixpoint takes %d", name, got.Passes, fix.Passes)
			}
			if got.Total > prev {
				t.Fatalf("%s: total %v above %v with one pass fewer", name, got.Total, prev)
			}
			prev = got.Total
		}
	}
	if deep == 0 {
		t.Fatal("no instance needs three passes to reach its fixpoint")
	}
}

func TestBaselinesProduceValidAllocations(t *testing.T) {
	tp := paperPlant(t)
	r := rand.New(rand.NewSource(17))
	placers := []Placer{
		&Random{Rand: rand.New(rand.NewSource(23))},
		FirstFit{},
		RoundRobinStripe{},
		PackBestFit{},
		&OnlineHeuristic{},
	}
	for trial := 0; trial < 25; trial++ {
		l := randCapacity(r, tp.Nodes(), 3, 3)
		req := model.Request{1 + r.Intn(4), r.Intn(4), r.Intn(2)}
		for _, p := range placers {
			alloc, err := p.Place(tp, l, req)
			if err != nil {
				if errors.Is(err, ErrInsufficient) {
					continue
				}
				t.Fatalf("%s trial %d: %v", p.Name(), trial, err)
			}
			if verr := alloc.Validate(req, l); verr != nil {
				t.Fatalf("%s trial %d: %v (alloc %v)", p.Name(), trial, verr, alloc)
			}
		}
	}
}

func TestBaselinesRejectInfeasible(t *testing.T) {
	tp := twoRacks(t)
	l := randCapacity(rand.New(rand.NewSource(1)), tp.Nodes(), 2, 1)
	req := model.Request{1000, 0}
	for _, p := range []Placer{
		&Random{Rand: rand.New(rand.NewSource(2))},
		FirstFit{}, RoundRobinStripe{}, PackBestFit{},
	} {
		if _, err := p.Place(tp, l, req); !errors.Is(err, ErrInsufficient) {
			t.Errorf("%s: err = %v, want ErrInsufficient", p.Name(), err)
		}
	}
}

func TestPlacerNames(t *testing.T) {
	names := map[string]interface{ Name() string }{
		"online-heuristic":            &OnlineHeuristic{},
		"online-heuristic/exhaustive": &OnlineHeuristic{Policy: ExhaustiveCenters},
		"random":                      &Random{},
		"first-fit":                   FirstFit{},
		"round-robin":                 RoundRobinStripe{},
		"pack-best-fit":               PackBestFit{},
		"global-subopt":               &GlobalSubOpt{},
	}
	for want, p := range names {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// On average, affinity-aware placement must produce much shorter distances
// than the affinity-blind baselines — the core claim of the paper.
func TestHeuristicBeatsBaselinesOnAverage(t *testing.T) {
	tp := paperPlant(t)
	r := rand.New(rand.NewSource(99))
	h := &OnlineHeuristic{}
	rrob := RoundRobinStripe{}
	var sumH, sumRR float64
	trials := 0
	for trial := 0; trial < 40; trial++ {
		l := randCapacity(r, tp.Nodes(), 3, 3)
		req := model.Request{2 + r.Intn(4), 1 + r.Intn(4), r.Intn(2)}
		a1, err1 := h.Place(tp, l, req)
		a2, err2 := rrob.Place(tp, l, req)
		if err1 != nil || err2 != nil {
			continue
		}
		d1, _ := a1.Distance(tp)
		d2, _ := a2.Distance(tp)
		sumH += d1
		sumRR += d2
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d comparable trials", trials)
	}
	if !(sumH < sumRR*0.8) {
		t.Errorf("heuristic total %.1f not clearly better than round-robin %.1f", sumH, sumRR)
	}
}

func TestPlaceSequentialCountsFailures(t *testing.T) {
	tp := twoRacks(t)
	l := [][]int{{2, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	reqs := []model.Request{{2, 0}, {1, 0}}
	res, err := PlaceSequential(tp, l, reqs, &OnlineHeuristic{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Failed)
	}
	if res.Allocs[0] == nil || res.Allocs[1] != nil {
		t.Error("wrong request failed")
	}
}

// TestTheorem2Inequality verifies the paper's Theorem 2 statement on a
// concrete instance: two clusters with distinct centers N_x and N_y,
// where cluster 1 holds a VM on N_y (the other's center) and cluster 2
// holds one on a node N_k with D_xy + D_yk > D_xk; trading those VMs
// strictly decreases the summed distance.
func TestTheorem2Inequality(t *testing.T) {
	tp := twoRacks(t) // nodes 0-2 rack 0, nodes 3-5 rack 1
	// Cluster A: mass on node 0 (center x=0), stray on node 3 (=N_y).
	a := affinity.Allocation{{2, 0}, {0, 0}, {0, 0}, {1, 0}, {0, 0}, {0, 0}}
	// Cluster B: mass on node 3 (center y=3), stray on node 1 (=N_k,
	// rack 0). Triangle: D(0,3) + D(3,1) = 2 + 2 = 4 > D(0,1) = 1.
	b := affinity.Allocation{{0, 0}, {1, 0}, {0, 0}, {2, 0}, {0, 0}, {0, 0}}
	da0, ca := a.Distance(tp)
	db0, cb := b.Distance(tp)
	if ca == cb {
		t.Fatalf("precondition violated: same centers %d", ca)
	}
	sumBefore := da0 + db0
	// Execute the Theorem-2 exchange: A's VM on node 3 ↔ B's VM on node 1.
	a.Remove(3, 0)
	a.Add(1, 0)
	b.Remove(1, 0)
	b.Add(3, 0)
	da1, _ := a.Distance(tp)
	db1, _ := b.Distance(tp)
	if da1+db1 >= sumBefore {
		t.Errorf("exchange did not decrease the sum: %v → %v", sumBefore, da1+db1)
	}
}

func TestMoveDeltaScreenConsistency(t *testing.T) {
	// The relocation pass's quick screen relies on MoveDelta agreeing in sign with
	// the true recomputed distance when the center does not change; verify
	// on a handcrafted case.
	tp := twoRacks(t)
	a := affinity.Allocation{{3, 0}, {0, 0}, {0, 0}, {1, 0}, {0, 0}, {0, 0}}
	d0, center := a.Distance(tp)
	if center != 0 {
		t.Fatalf("center = %d", center)
	}
	// Moving the stray VM from node 3 (cross rack) to node 1 (same rack)
	// must improve by d2−d1 = 1.
	b := a.Clone()
	b.Remove(3, 0)
	b.Add(1, 0)
	d1, _ := b.Distance(tp)
	if math.Abs((d1-d0)-affinity.MoveDelta(tp, center, 3, 1)) > 1e-9 {
		t.Errorf("delta mismatch: %v vs %v", d1-d0, affinity.MoveDelta(tp, center, 3, 1))
	}
}

// TestShortfallError pins the admission failure: it matches
// ErrInsufficient and reads exactly as the fmt.Errorf wrap it replaced.
func TestShortfallError(t *testing.T) {
	err := admitAvail([]int{3, 1}, model.Request{2, 4})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("admitAvail error %v does not match ErrInsufficient", err)
	}
	want := "placement: request exceeds available resources: type 1 needs 4, 1 available"
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if err := admitAvail([]int{3, 4}, model.Request{2, 4}); err != nil {
		t.Errorf("fitting request rejected: %v", err)
	}
}

// TestAdmissionRejectsNegatives: a negative demand or a negative
// capacity cell is malformed input. Admission refuses it, for every
// placer, with an error that does not wrap ErrInsufficient, instead of
// ignoring the negative demand or netting the negative cell against the
// rest of its column. The sparse paths read capacity from a tier index,
// so only the demand cases reach them.
func TestAdmissionRejectsNegatives(t *testing.T) {
	tp, err := topology.Uniform(1, 1, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	fits := [][]int{{2, 2}, {2, 2}, {2, 2}}
	idx, err := affinity.NewTierIndex(tp, fits)
	if err != nil {
		t.Fatal(err)
	}
	cur := []affinity.VMEntry{{Node: 0, Type: 0, Count: 1}}
	for _, tc := range []struct {
		name string
		l    [][]int
		r    model.Request
	}{
		{"negative demand beside a fitting one", fits, model.Request{-1, 2}},
		{"negative demand only", fits, model.Request{-3, 0}},
		{"negative demand after a shortfall", fits, model.Request{100, -1}},
		{"negative capacity cell", [][]int{{-1, 0}, {1, 0}, {1, 0}}, model.Request{2, 0}},
	} {
		check := func(placer string, err error) {
			t.Helper()
			if err == nil || errors.Is(err, ErrInsufficient) {
				t.Errorf("%s, %s: err = %v, want a malformed-input error", placer, tc.name, err)
			}
		}
		h := &OnlineHeuristic{}
		_, err := h.Place(tp, tc.l, tc.r)
		check("Place", err)
		_, err = FirstFit{}.Place(tp, tc.l, tc.r)
		check("FirstFit", err)
		if tc.l[0][0] < 0 {
			continue
		}
		var sp affinity.SparseAlloc
		_, _, err = h.PlaceSparse(idx, tc.r, &sp)
		check("PlaceSparse", err)
		_, _, err = h.PlaceDeltaSparse(idx, cur, tc.r, &sp)
		check("PlaceDeltaSparse", err)
	}
}

// TestAdmissionRejectsCapacityOverflow: a dense capacity matrix whose
// cells sum past int would wrap A_j negative and turn a fitting request
// into a shortfall. Every dense placer refuses it with a malformed-input
// error that wraps model.ErrCapacityOverflow, not ErrInsufficient.
func TestAdmissionRejectsCapacityOverflow(t *testing.T) {
	tp, err := topology.Uniform(1, 1, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range [][][]int{
		{{9000000000000000000}, {9000000000000000000}},
		{{math.MaxInt, 0}, {0, 1}},
	} {
		r := make(model.Request, len(l[0]))
		r[0] = 5
		for _, p := range []Placer{&OnlineHeuristic{}, &OnlineHeuristic{Policy: ExhaustiveCenters}, FirstFit{}, RoundRobinStripe{}, PackBestFit{}} {
			_, err := p.Place(tp, l, r)
			if !errors.Is(err, model.ErrCapacityOverflow) || errors.Is(err, ErrInsufficient) {
				t.Errorf("%s on %v: err = %v, want ErrCapacityOverflow and not ErrInsufficient", p.Name(), l, err)
			}
		}
	}
}
