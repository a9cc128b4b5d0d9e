package topology

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDistancesValidate(t *testing.T) {
	if err := DefaultDistances().Validate(); err != nil {
		t.Fatalf("default distances invalid: %v", err)
	}
	bad := []Distances{
		{SameNode: -1, SameRack: 1, CrossRack: 2, CrossCloud: 3},
		{SameNode: 0, SameRack: 0, CrossRack: 2, CrossCloud: 3},  // d1 not > d0
		{SameNode: 0, SameRack: 2, CrossRack: 2, CrossCloud: 3},  // d2 not > d1
		{SameNode: 0, SameRack: 1, CrossRack: 3, CrossCloud: 3},  // d3 not > d2
		{SameNode: 0, SameRack: 5, CrossRack: 2, CrossCloud: 10}, // inverted
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad distances %d accepted: %+v", i, d)
		}
	}
}

func TestUniformShape(t *testing.T) {
	tp, err := Uniform(2, 3, 4, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	if tp.Nodes() != 24 || tp.Racks() != 6 || tp.Clouds() != 2 {
		t.Fatalf("shape = (%d nodes, %d racks, %d clouds), want (24, 6, 2)", tp.Nodes(), tp.Racks(), tp.Clouds())
	}
	// Node 0 in rack 0 cloud 0; node 23 in rack 5 cloud 1.
	if tp.RackOf(0) != 0 || tp.CloudOf(0) != 0 {
		t.Error("node 0 misplaced")
	}
	if tp.RackOf(23) != 5 || tp.CloudOf(23) != 1 {
		t.Error("node 23 misplaced")
	}
	for r := 0; r < tp.Racks(); r++ {
		if len(tp.RackNodes(r)) != 4 {
			t.Errorf("rack %d has %d nodes, want 4", r, len(tp.RackNodes(r)))
		}
	}
}

func TestUniformRejectsNonPositive(t *testing.T) {
	for _, args := range [][3]int{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 3, 10}} {
		if _, err := Uniform(args[0], args[1], args[2], DefaultDistances()); err == nil {
			t.Errorf("Uniform(%v) accepted", args)
		}
	}
}

// TestUniformRejectsOversizedPlants: a node count that overflows int, or
// that passes maxUniformNodes, is an error, not a makeslice panic or an
// out-of-memory crash. The bound sits above the benchmarks' 1M-node
// plants.
func TestUniformRejectsOversizedPlants(t *testing.T) {
	if maxUniformNodes < 100*100*100 {
		t.Fatalf("maxUniformNodes = %d refuses the benchmarks' 100x100x100 plant", maxUniformNodes)
	}
	for _, args := range [][3]int{
		{3037000500, 3037000500, 1}, // the product overflows int
		{1, 100000, 100000},
		{1, 1, maxUniformNodes + 1},
		{maxUniformNodes + 1, 1, 1},
	} {
		if _, err := Uniform(args[0], args[1], args[2], DefaultDistances()); err == nil {
			t.Errorf("Uniform(%v) accepted", args)
		}
	}
}

func TestPaperSimPlant(t *testing.T) {
	tp := PaperSimPlant()
	if tp.Racks() != 3 || tp.Nodes() != 30 {
		t.Fatalf("paper plant = %d racks, %d nodes; want 3, 30", tp.Racks(), tp.Nodes())
	}
}

func TestDistanceTiers(t *testing.T) {
	tp, err := Uniform(2, 2, 2, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	d := tp.Distances()
	cases := []struct {
		a, b NodeID
		want float64
	}{
		{0, 0, d.SameNode},
		{0, 1, d.SameRack},   // same rack
		{0, 2, d.CrossRack},  // rack 0 vs rack 1, cloud 0
		{0, 4, d.CrossCloud}, // cloud 0 vs cloud 1
		{5, 4, d.SameRack},
	}
	for _, c := range cases {
		if got := tp.Distance(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceMatrixAgreesWithDistance(t *testing.T) {
	tp, err := Uniform(2, 3, 3, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	m := tp.DistanceMatrix()
	for i := 0; i < tp.Nodes(); i++ {
		for j := 0; j < tp.Nodes(); j++ {
			if m[i][j] != tp.Distance(NodeID(i), NodeID(j)) {
				t.Fatalf("matrix[%d][%d] disagrees", i, j)
			}
		}
	}
}

// Property: distance is symmetric, non-negative, zero-diagonal (with
// SameNode = 0) and satisfies the triangle inequality on tiered topologies.
func TestQuickDistanceMetricProperties(t *testing.T) {
	tp, err := Uniform(2, 3, 4, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	n := tp.Nodes()
	f := func(ai, bi, ci uint8) bool {
		a, b, c := NodeID(int(ai)%n), NodeID(int(bi)%n), NodeID(int(ci)%n)
		dab := tp.Distance(a, b)
		if dab != tp.Distance(b, a) || dab < 0 {
			return false
		}
		if a == b && dab != 0 {
			return false
		}
		return tp.Distance(a, c) <= dab+tp.Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNodesSortedByDistance(t *testing.T) {
	tp, err := Uniform(2, 2, 3, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	for from := 0; from < tp.Nodes(); from++ {
		order := tp.NodesSortedByDistance(NodeID(from))
		if len(order) != tp.Nodes() {
			t.Fatalf("order from %d has %d entries", from, len(order))
		}
		if order[0] != NodeID(from) {
			t.Fatalf("order from %d does not start with itself", from)
		}
		seen := make(map[NodeID]bool)
		prev := -1.0
		for _, id := range order {
			if seen[id] {
				t.Fatalf("duplicate node %d in order from %d", id, from)
			}
			seen[id] = true
			d := tp.Distance(NodeID(from), id)
			if d < prev {
				t.Fatalf("order from %d not ascending: %v then %v", from, prev, d)
			}
			prev = d
		}
	}
}

func TestBuilderExplicit(t *testing.T) {
	b := NewBuilder(DefaultDistances())
	b.AddCloud()
	r1 := b.AddRack()
	n1 := b.AddNode("alpha")
	n2 := b.AddNode("")
	r2 := b.AddRack()
	n3 := b.AddNode("gamma")
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != 0 || r2 != 1 {
		t.Errorf("rack indices = %d, %d", r1, r2)
	}
	if tp.Node(n1).Name != "alpha" || tp.Node(n2).Name != "node-1" || tp.Node(n3).Name != "gamma" {
		t.Errorf("node names wrong: %+v", tp.nodes)
	}
	if !tp.SameRack(n1, n2) || tp.SameRack(n1, n3) {
		t.Error("SameRack wrong")
	}
}

func TestBuilderImplicitCloudAndRack(t *testing.T) {
	b := NewBuilder(DefaultDistances())
	b.AddNode("solo") // should auto-create cloud 0 and rack 0
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Clouds() != 1 || tp.Racks() != 1 || tp.Nodes() != 1 {
		t.Fatalf("implicit plant shape wrong: %d/%d/%d", tp.Clouds(), tp.Racks(), tp.Nodes())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder(DefaultDistances()).Build(); err == nil {
		t.Error("empty plant accepted")
	}
	bad := NewBuilder(Distances{SameNode: 0, SameRack: 2, CrossRack: 1, CrossCloud: 3})
	bad.AddNode("x")
	if _, err := bad.Build(); err == nil {
		t.Error("invalid distances accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tp, err := Uniform(2, 3, 4, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Nodes() != tp.Nodes() || back.Racks() != tp.Racks() || back.Clouds() != tp.Clouds() {
		t.Fatal("round-trip changed shape")
	}
	for i := 0; i < tp.Nodes(); i++ {
		for j := 0; j < tp.Nodes(); j++ {
			if back.Distance(NodeID(i), NodeID(j)) != tp.Distance(NodeID(i), NodeID(j)) {
				t.Fatalf("round-trip changed Distance(%d,%d)", i, j)
			}
		}
	}
}

func TestJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{`,
		`{"distances":{"SameNode":0,"SameRack":1,"CrossRack":2,"CrossCloud":4},"nodes":[],"racks":0,"clouds":0}`,
		`{"distances":{"SameNode":0,"SameRack":3,"CrossRack":2,"CrossCloud":4},"nodes":[{"ID":0,"Rack":0,"Cloud":0}],"racks":1,"clouds":1}`,
		`{"distances":{"SameNode":0,"SameRack":1,"CrossRack":2,"CrossCloud":4},"nodes":[{"ID":5,"Rack":0,"Cloud":0}],"racks":1,"clouds":1}`,
		`{"distances":{"SameNode":0,"SameRack":1,"CrossRack":2,"CrossCloud":4},"nodes":[{"ID":0,"Rack":9,"Cloud":0}],"racks":1,"clouds":1}`,
		`{"distances":{"SameNode":0,"SameRack":1,"CrossRack":2,"CrossCloud":4},"nodes":[{"ID":0,"Rack":0,"Cloud":9}],"racks":1,"clouds":1}`,
	}
	for i, s := range cases {
		var tp Topology
		if err := json.Unmarshal([]byte(s), &tp); err == nil {
			t.Errorf("corrupt JSON %d accepted", i)
		}
	}
}

func TestDistanceConcurrentReads(t *testing.T) {
	tp := PaperSimPlant()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				a := NodeID(r.Intn(tp.Nodes()))
				b := NodeID(r.Intn(tp.Nodes()))
				_ = tp.Distance(a, b)
			}
			done <- true
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestFlatTableMatchesTierDistance(t *testing.T) {
	tp, err := Uniform(2, 3, 5, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	if tp.flat == nil {
		t.Fatal("flat table not armed for a 30-node plant")
	}
	if tp.flat.d != nil {
		t.Fatal("flat table filled at Build; it must wait for the first lookup")
	}
	for i := 0; i < tp.Nodes(); i++ {
		row := tp.DistanceRow(NodeID(i))
		if len(row) != tp.Nodes() {
			t.Fatalf("row %d has length %d", i, len(row))
		}
		for j := 0; j < tp.Nodes(); j++ {
			want := tp.tierDistance(NodeID(i), NodeID(j))
			if got := tp.Distance(NodeID(i), NodeID(j)); got != want {
				t.Errorf("Distance(%d,%d) = %v, want %v", i, j, got, want)
			}
			if row[j] != want {
				t.Errorf("DistanceRow(%d)[%d] = %v, want %v", i, j, row[j], want)
			}
		}
	}
	if len(tp.flat.d) != tp.Nodes()*tp.Nodes() {
		t.Fatalf("flat table has %d cells after lookups, want %d", len(tp.flat.d), tp.Nodes()*tp.Nodes())
	}
}

// TestFlatTableConcurrentFirstUse races the lazy fill: 8 goroutines
// look up distances on a freshly built topology at once. Under -race
// this pins that the fill is published safely to every reader.
func TestFlatTableConcurrentFirstUse(t *testing.T) {
	tp, err := Uniform(2, 4, 8, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := tp.Nodes()
			for k := 0; k < n*n; k++ {
				a, b := NodeID((k+g)%n), NodeID(k/n)
				if got, want := tp.Distance(a, b), tp.tierDistance(a, b); got != want {
					t.Errorf("goroutine %d: Distance(%d,%d) = %v, want %v", g, a, b, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlatTableSurvivesJSONRoundTrip(t *testing.T) {
	tp, err := Uniform(1, 2, 3, DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.flat == nil {
		t.Fatal("decoded topology lost the flat distance table")
	}
	if back.flat == tp.flat {
		t.Fatal("decoded topology shares the source's flat table")
	}
	for i := 0; i < tp.Nodes(); i++ {
		for j := 0; j < tp.Nodes(); j++ {
			if back.Distance(NodeID(i), NodeID(j)) != tp.Distance(NodeID(i), NodeID(j)) {
				t.Fatalf("distance (%d,%d) changed across round trip", i, j)
			}
		}
	}
}

func TestDistanceRowWithoutFlatTable(t *testing.T) {
	tp := PaperSimPlant()
	saved := tp.flat
	tp.flat = nil // simulate a plant above flatTableMaxNodes
	defer func() { tp.flat = saved }()
	row := tp.DistanceRow(3)
	for j := range row {
		if row[j] != tp.tierDistance(3, NodeID(j)) {
			t.Fatalf("fallback row entry %d = %v", j, row[j])
		}
	}
}
