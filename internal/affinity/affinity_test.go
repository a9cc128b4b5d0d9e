package affinity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// twoRackPlant builds the Fig. 1 style plant: rack 0 holds nodes 0 and 1,
// rack 1 holds nodes 2 and 3, with the paper's experimental distances
// d0=0, d1=1, d2=2.
func twoRackPlant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestPaperWorkedExample(t *testing.T) {
	// Reproduces the DC computations below Definition 2: a request for
	// 2×V1, 4×V2, 1×V3 placed on a two-rack plant, evaluated with
	// d1 = SameRack, d2 = CrossRack. The paper reports allocations with
	// DC = 2d1+d2, 2d2, and d1+2d2.
	tp := twoRackPlant(t)
	d1 := tp.Distances().SameRack
	d2 := tp.Distances().CrossRack

	cases := []struct {
		name    string
		alloc   Allocation
		want    float64
		wantCtr topology.NodeID
	}{
		{
			// DC1: N0 gets 2 V1 + 2 V2, N1 gets 2 V2, N2 gets 1 V3.
			name:    "DC1 = 2d1 + d2",
			alloc:   Allocation{{2, 2, 0}, {0, 2, 0}, {0, 0, 1}, {0, 0, 0}},
			want:    2*d1 + d2,
			wantCtr: 0,
		},
		{
			// DC3: N0 gets 2 V1 + 3 V2, N2 gets 1 V2 + 1 V3.
			name:    "DC3 = 2d2",
			alloc:   Allocation{{2, 3, 0}, {0, 0, 0}, {0, 1, 1}, {0, 0, 0}},
			want:    2 * d2,
			wantCtr: 0,
		},
		{
			// DC4: N0 gets 2 V1 + 2 V2, N1 gets 1 V2, N2 gets 1 V2 + 1 V3.
			name:    "DC4 = d1 + 2d2",
			alloc:   Allocation{{2, 2, 0}, {0, 1, 0}, {0, 1, 1}, {0, 0, 0}},
			want:    d1 + 2*d2,
			wantCtr: 0,
		},
	}
	req := model.Request{2, 4, 1}
	for _, c := range cases {
		if !c.alloc.Satisfies(req) {
			t.Fatalf("%s: allocation does not satisfy request %v", c.name, req)
		}
		got, ctr := c.alloc.Distance(tp)
		if got != c.want {
			t.Errorf("%s: DC = %v, want %v", c.name, got, c.want)
		}
		if ctr != c.wantCtr {
			t.Errorf("%s: central node = %d, want %d", c.name, ctr, c.wantCtr)
		}
	}
}

func TestEmptyAllocation(t *testing.T) {
	tp := twoRackPlant(t)
	a := NewAllocation(4, 3)
	if a.TotalVMs() != 0 {
		t.Error("new allocation not empty")
	}
	d, k := a.Distance(tp)
	if d != 0 || k != -1 {
		t.Errorf("empty Distance = (%v, %d), want (0, -1)", d, k)
	}
	if a.PairwiseAffinity(tp) != 0 {
		t.Error("empty PairwiseAffinity != 0")
	}
	if a.String() != "(empty)" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestVectorSatisfiesFits(t *testing.T) {
	a := Allocation{{1, 2}, {0, 1}}
	v := a.Vector()
	if v[0] != 1 || v[1] != 3 {
		t.Errorf("Vector = %v", v)
	}
	if !a.Satisfies(model.Request{1, 3}) {
		t.Error("Satisfies false for exact match")
	}
	if a.Satisfies(model.Request{1, 2}) {
		t.Error("Satisfies true for mismatch")
	}
	if a.Satisfies(model.Request{1}) {
		t.Error("Satisfies true for wrong length")
	}
	if !a.Fits([][]int{{1, 2}, {1, 1}}) {
		t.Error("Fits false for fitting capacity")
	}
	if a.Fits([][]int{{1, 1}, {1, 1}}) {
		t.Error("Fits true for exceeded capacity")
	}
	if a.Fits([][]int{{1, 2}}) {
		t.Error("Fits true for wrong shape")
	}
	if err := a.Validate(model.Request{1, 3}, [][]int{{1, 2}, {1, 1}}); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := a.Validate(model.Request{9, 9}, [][]int{{1, 2}, {1, 1}}); err == nil {
		t.Error("Validate accepted wrong vector")
	}
	if err := a.Validate(model.Request{1, 3}, [][]int{{0, 0}, {0, 0}}); err == nil {
		t.Error("Validate accepted capacity violation")
	}
}

func TestAddRemove(t *testing.T) {
	a := NewAllocation(2, 2)
	a.Add(1, 0)
	if a[1][0] != 1 {
		t.Error("Add failed")
	}
	a.Remove(1, 0)
	if a[1][0] != 0 {
		t.Error("Remove failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Remove on empty cell did not panic")
		}
	}()
	a.Remove(1, 0)
}

func TestSparseRoundTrip(t *testing.T) {
	a := Allocation{{0, 2, 0}, {0, 0, 0}, {1, 0, 3}}
	ents := a.Sparse()
	want := []VMEntry{{Node: 0, Type: 1, Count: 2}, {Node: 2, Type: 0, Count: 1}, {Node: 2, Type: 2, Count: 3}}
	if len(ents) != len(want) {
		t.Fatalf("Sparse() = %v, want %v", ents, want)
	}
	for i := range want {
		if ents[i] != want[i] {
			t.Fatalf("Sparse()[%d] = %v, want %v", i, ents[i], want[i])
		}
	}
	sp := SparseAlloc{NumNodes: 3, NumTypes: 3, Entries: ents}
	back := sp.ToDense()
	for i := range a {
		for j := range a[i] {
			if back[i][j] != a[i][j] {
				t.Fatalf("round trip mismatch at (%d,%d): %d vs %d", i, j, back[i][j], a[i][j])
			}
		}
	}
	if got := NewAllocation(2, 2).Sparse(); got != nil {
		t.Fatalf("Sparse() of empty allocation = %v, want nil", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Allocation{{1, 2}, {3, 4}}
	b := a.Clone()
	b[0][0] = 99
	if a[0][0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestHostingNodes(t *testing.T) {
	a := Allocation{{0, 0}, {1, 0}, {0, 0}, {0, 2}}
	hosts := a.HostingNodes()
	if len(hosts) != 2 || hosts[0] != 1 || hosts[1] != 3 {
		t.Errorf("HostingNodes = %v", hosts)
	}
	if a.TotalVMs() != 3 {
		t.Errorf("TotalVMs = %d", a.TotalVMs())
	}
	if a.VMsOnNode(3) != 2 {
		t.Errorf("VMsOnNode(3) = %d", a.VMsOnNode(3))
	}
}

// randomAllocation builds a random allocation on the plant with ~total VMs.
func randomAllocation(r *rand.Rand, n, m, total int) Allocation {
	a := NewAllocation(n, m)
	for v := 0; v < total; v++ {
		a[r.Intn(n)][r.Intn(m)]++
	}
	return a
}

// Property: the minimum of DistanceFrom over ALL nodes equals Distance,
// which only scans hosting nodes — validating the optimization argument in
// the Distance doc comment.
func TestQuickDistanceMinAttainedAtHostingNode(t *testing.T) {
	tp, err := topology.Uniform(2, 3, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAllocation(r, tp.Nodes(), 3, 1+r.Intn(12))
		got, _ := a.Distance(tp)
		best := math.Inf(1)
		for k := 0; k < tp.Nodes(); k++ {
			if d := a.DistanceFrom(tp, topology.NodeID(k)); d < best {
				best = d
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 1): moving one VM from node p to a node q closer to the
// fixed center changes the center-fixed distance by exactly D_qk − D_pk,
// and therefore strictly decreases it when D_qk < D_pk.
func TestQuickTheorem1Exchange(t *testing.T) {
	tp, err := topology.Uniform(1, 3, 5, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAllocation(r, tp.Nodes(), 2, 2+r.Intn(10))
		hosts := a.HostingNodes()
		p := hosts[r.Intn(len(hosts))]
		// Find a type present on p.
		var vt model.VMTypeID = -1
		for j, c := range a[p] {
			if c > 0 {
				vt = model.VMTypeID(j)
				break
			}
		}
		q := topology.NodeID(r.Intn(tp.Nodes()))
		k := topology.NodeID(r.Intn(tp.Nodes()))
		before := a.DistanceFrom(tp, k)
		b := a.Clone()
		b.Remove(p, vt)
		b.Add(q, vt)
		after := b.DistanceFrom(tp, k)
		delta := MoveDelta(tp, k, p, q)
		if math.Abs((after-before)-delta) > 1e-9 {
			return false
		}
		if tp.Distance(q, k) < tp.Distance(p, k) && after >= before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: DC(C) is invariant under relabeling VM types — only the
// per-node VM counts matter.
func TestQuickDistanceTypeInvariance(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 5, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAllocation(r, tp.Nodes(), 3, 1+r.Intn(10))
		// Collapse all types to type 0.
		b := NewAllocation(tp.Nodes(), 3)
		for i := range a {
			b[i][0] = model.Sum(a[i])
		}
		da, _ := a.Distance(tp)
		db, _ := b.Distance(tp)
		return da == db && a.PairwiseAffinity(tp) == b.PairwiseAffinity(tp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseAffinity(t *testing.T) {
	tp := twoRackPlant(t)
	// 2 VMs on node 0, 1 on node 1 (same rack), 1 on node 2 (other rack).
	a := Allocation{{2, 0, 0}, {1, 0, 0}, {1, 0, 0}, {0, 0, 0}}
	// Pairs: within node 0: 1 pair × 0. (n0,n1): 2×1×d1. (n0,n2): 2×1×d2.
	// (n1,n2): 1×1×d2.
	d := tp.Distances()
	want := 2*d.SameRack + 2*d.CrossRack + 1*d.CrossRack
	if got := a.PairwiseAffinity(tp); got != want {
		t.Errorf("PairwiseAffinity = %v, want %v", got, want)
	}
}

func TestPairwiseAffinityPackedIsMinimal(t *testing.T) {
	// Packing all VMs on one node gives affinity 0 with SameNode = 0; any
	// spread strictly increases it.
	tp := twoRackPlant(t)
	packed := Allocation{{4, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}
	if got := packed.PairwiseAffinity(tp); got != 0 {
		t.Errorf("packed affinity = %v, want 0", got)
	}
	spread := Allocation{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}}
	if got := spread.PairwiseAffinity(tp); got <= 0 {
		t.Errorf("spread affinity = %v, want > 0", got)
	}
}

func TestStringRendering(t *testing.T) {
	a := Allocation{{1, 0}, {0, 0}, {0, 2}}
	if got := a.String(); got != "n0:[1 0] n2:[0 2]" {
		t.Errorf("String() = %q", got)
	}
}
