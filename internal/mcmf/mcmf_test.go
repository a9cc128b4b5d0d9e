package mcmf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/lp"
)

func TestBasicPath(t *testing.T) {
	// 0 → 1 → 2, capacities 5, costs 1 and 2 → 5 units at cost 15.
	g := NewGraph(3)
	if _, err := g.AddArc(0, 1, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddArc(1, 2, 5, 2); err != nil {
		t.Fatal(err)
	}
	res, err := g.MinCostFlow(0, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 5 || res.Cost != 15 {
		t.Fatalf("flow %d cost %v, want 5 / 15", res.Flow, res.Cost)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel paths 0→1→3 (cost 1+1) and 0→2→3 (cost 5+5); capacity
	// 3 each; ship 4 units: 3 on the cheap path, 1 on the dear one.
	g := NewGraph(4)
	mustArc(t, g, 0, 1, 3, 1)
	mustArc(t, g, 1, 3, 3, 1)
	mustArc(t, g, 0, 2, 3, 5)
	mustArc(t, g, 2, 3, 3, 5)
	res, err := g.MinCostFlow(0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 4 || res.Cost != 3*2+1*10 {
		t.Fatalf("flow %d cost %v, want 4 / 16", res.Flow, res.Cost)
	}
}

func mustArc(t *testing.T, g *Graph, u, v, c int, cost float64) int {
	t.Helper()
	idx, err := g.AddArc(u, v, c, cost)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestResidualRerouting(t *testing.T) {
	// Classic instance where the second augmentation must push flow back
	// over a reverse arc: diamond with a cross edge.
	g := NewGraph(4)
	mustArc(t, g, 0, 1, 1, 1)
	mustArc(t, g, 0, 2, 1, 4)
	mustArc(t, g, 1, 2, 1, 1) // cheap cross edge
	mustArc(t, g, 1, 3, 1, 4)
	mustArc(t, g, 2, 3, 1, 1)
	res, err := g.MinCostFlow(0, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Max flow is 2 (arcs into node 3 have capacity 1 each). The greedy
	// first augmentation takes 0→1→2→3 (cost 3); the second unit then has
	// to undo the cross edge: 0→2, reverse 2→1, 1→3 costs 4−1+4 = 7.
	// Total 10 — the same as the path pair {0→1→3, 0→2→3}, which is the
	// true optimum.
	if res.Flow != 2 || math.Abs(res.Cost-10) > 1e-9 {
		t.Fatalf("flow %d cost %v, want 2 / 10", res.Flow, res.Cost)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	g := NewGraph(2)
	mustArc(t, g, 0, 1, 10, 3)
	res, err := g.MinCostFlow(0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 4 || res.Cost != 12 {
		t.Fatalf("flow %d cost %v", res.Flow, res.Cost)
	}
}

func TestUnreachableSink(t *testing.T) {
	g := NewGraph(3)
	mustArc(t, g, 0, 1, 5, 1)
	res, err := g.MinCostFlow(0, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Fatalf("flow %d cost %v, want 0 / 0", res.Flow, res.Cost)
	}
}

func TestAPIErrors(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddArc(0, 5, 1, 1); err == nil {
		t.Error("out-of-range arc accepted")
	}
	if _, err := g.AddArc(0, 1, -1, 1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := g.AddArc(0, 1, 1, math.NaN()); err == nil {
		t.Error("NaN cost accepted")
	}
	if _, err := g.MinCostFlow(0, 0, -1); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := g.MinCostFlow(0, 9, -1); err == nil {
		t.Error("out-of-range sink accepted")
	}
	idx := mustArc(t, g, 0, 1, 1, 1)
	if _, err := g.Flow(idx + 1); err == nil {
		t.Error("reverse arc index accepted by Flow")
	}
	if _, err := g.Flow(-1); err == nil {
		t.Error("negative arc index accepted by Flow")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewGraph(0) did not panic")
		}
	}()
	NewGraph(0)
}

func TestFlowInspection(t *testing.T) {
	g := NewGraph(2)
	idx := mustArc(t, g, 0, 1, 7, 2)
	if _, err := g.MinCostFlow(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	f, err := g.Flow(idx)
	if err != nil || f != 3 {
		t.Fatalf("Flow = %d, %v", f, err)
	}
}

func TestTransportationSmall(t *testing.T) {
	cost := [][]float64{{1, 4}, {3, 2}}
	ship, total, err := Transportation(cost, []int{3, 3}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 { // 2×1 + 2×2
		t.Fatalf("cost = %v, want 6", total)
	}
	if ship[0][0] != 2 || ship[1][1] != 2 {
		t.Fatalf("ship = %v", ship)
	}
}

func TestTransportationValidation(t *testing.T) {
	if _, _, err := Transportation(nil, nil, nil); err == nil {
		t.Error("empty instance accepted")
	}
	if _, _, err := Transportation([][]float64{{1}}, []int{1}, []int{2}); err == nil {
		t.Error("demand > supply accepted")
	}
	if _, _, err := Transportation([][]float64{{1}}, []int{-1}, []int{0}); err == nil {
		t.Error("negative supply accepted")
	}
	if _, _, err := Transportation([][]float64{{1}}, []int{1}, []int{-1}); err == nil {
		t.Error("negative demand accepted")
	}
	if _, _, err := Transportation([][]float64{{1, 2}}, []int{1}, []int{1, 0, 0}); err == nil {
		t.Error("ragged cost accepted")
	}
	if _, _, err := Transportation([][]float64{{1}, {2}}, []int{1}, []int{1}); err == nil {
		t.Error("cost rows mismatch accepted")
	}
}

// Property: on random transportation instances, mcmf matches the LP
// optimum and satisfies all constraints.
func TestQuickTransportationMatchesLP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(3), 2+r.Intn(3)
		cost := make([][]float64, rows)
		supply := make([]int, rows)
		total := 0
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				cost[i][j] = float64(1 + r.Intn(9))
			}
			supply[i] = 1 + r.Intn(5)
			total += supply[i]
		}
		demand := make([]int, cols)
		remaining := total
		for j := range demand {
			demand[j] = r.Intn(remaining + 1)
			remaining -= demand[j]
		}
		ship, got, err := Transportation(cost, supply, demand)
		if err != nil {
			return false
		}
		// Constraint check.
		for i := 0; i < rows; i++ {
			rowSum := 0
			for j := 0; j < cols; j++ {
				if ship[i][j] < 0 {
					return false
				}
				rowSum += ship[i][j]
			}
			if rowSum > supply[i] {
				return false
			}
		}
		for j := 0; j < cols; j++ {
			colSum := 0
			for i := 0; i < rows; i++ {
				colSum += ship[i][j]
			}
			if colSum != demand[j] {
				return false
			}
		}
		// LP reference.
		p := lp.NewProblem(rows * cols)
		obj := make([]float64, rows*cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				obj[i*cols+j] = cost[i][j]
			}
		}
		if err := p.SetObjective(obj); err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			vars := make([]int, cols)
			coefs := make([]float64, cols)
			for j := 0; j < cols; j++ {
				vars[j] = i*cols + j
				coefs[j] = 1
			}
			if err := p.AddSparseConstraint(vars, coefs, lp.LE, float64(supply[i])); err != nil {
				return false
			}
		}
		for j := 0; j < cols; j++ {
			vars := make([]int, rows)
			coefs := make([]float64, rows)
			for i := 0; i < rows; i++ {
				vars[i] = i*cols + j
				coefs[i] = 1
			}
			if err := p.AddSparseConstraint(vars, coefs, lp.EQ, float64(demand[j])); err != nil {
				return false
			}
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.Optimal {
			return false
		}
		return math.Abs(got-sol.Objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: min-cost flow cost is monotone in the flow target.
func TestQuickCostMonotoneInFlow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		build := func() *Graph {
			g := NewGraph(n)
			r2 := rand.New(rand.NewSource(seed))
			for e := 0; e < 2*n; e++ {
				u, v := r2.Intn(n), r2.Intn(n)
				if u == v {
					continue
				}
				_, _ = g.AddArc(u, v, 1+r2.Intn(4), float64(r2.Intn(5)))
			}
			return g
		}
		g1 := build()
		res1, err := g1.MinCostFlow(0, n-1, 1)
		if err != nil {
			return false
		}
		g2 := build()
		res2, err := g2.MinCostFlow(0, n-1, 2)
		if err != nil {
			return false
		}
		if res2.Flow < res1.Flow {
			return false
		}
		return res2.Cost >= res1.Cost-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
