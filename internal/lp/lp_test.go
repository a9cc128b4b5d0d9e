package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return s
}

// addDense appends the row coeffs·x (rel) rhs over every variable.
func addDense(p *Problem, coeffs []float64, rel Relation, rhs float64) error {
	vars := make([]int, len(coeffs))
	for i := range vars {
		vars[i] = i
	}
	return p.AddSparseConstraint(vars, coeffs, rel, rhs)
}

func wantOptimal(t *testing.T, s *Solution, obj float64) {
	t.Helper()
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-obj) > 1e-6 {
		t.Fatalf("objective = %v, want %v", s.Objective, obj)
	}
}

func TestSimpleMinimization(t *testing.T) {
	// min x0 + 2 x1  s.t.  x0 + x1 >= 3, x0 <= 2  →  x0=2, x1=1, obj=4.
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := addDense(p, []float64{1, 1}, GE, 3); err != nil {
		t.Fatal(err)
	}
	if err := addDense(p, []float64{1, 0}, LE, 2); err != nil {
		t.Fatal(err)
	}
	s := solveOK(t, p)
	wantOptimal(t, s, 4)
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-1) > 1e-6 {
		t.Errorf("x = %v, want [2 1]", s.X)
	}
}

func TestMaximizationViaNegation(t *testing.T) {
	// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
	// Optimum: x=2, y=6, objective 36.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{-3, -5})
	_ = addDense(p, []float64{1, 0}, LE, 4)
	_ = addDense(p, []float64{0, 2}, LE, 12)
	_ = addDense(p, []float64{3, 2}, LE, 18)
	s := solveOK(t, p)
	wantOptimal(t, s, -36)
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-6) > 1e-6 {
		t.Errorf("x = %v, want [2 6]", s.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x0 + x1 s.t. x0 + 2 x1 = 4, x0 - x1 = 1 → x0=2, x1=1, obj=3.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1})
	_ = addDense(p, []float64{1, 2}, EQ, 4)
	_ = addDense(p, []float64{1, -1}, EQ, 1)
	s := solveOK(t, p)
	wantOptimal(t, s, 3)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1})
	_ = addDense(p, []float64{1}, GE, 5)
	_ = addDense(p, []float64{1}, LE, 3)
	s := solveOK(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x0 with only x0 >= 1: drive x0 to infinity.
	p := NewProblem(1)
	_ = p.SetObjective([]float64{-1})
	_ = addDense(p, []float64{1}, GE, 1)
	s := solveOK(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x0 - x1 <= -2 is x1 - x0 >= 2. min x1 s.t. that and x0 >= 0 → x1=2.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{0, 1})
	_ = addDense(p, []float64{1, -1}, LE, -2)
	s := solveOK(t, p)
	wantOptimal(t, s, 2)
}

func TestNegativeRHSEquality(t *testing.T) {
	// -x0 = -3 → x0 = 3.
	p := NewProblem(1)
	_ = p.SetObjective([]float64{1})
	_ = addDense(p, []float64{-1}, EQ, -3)
	s := solveOK(t, p)
	wantOptimal(t, s, 3)
	if math.Abs(s.X[0]-3) > 1e-6 {
		t.Errorf("x = %v", s.X)
	}
}

func TestDegenerateLPTerminates(t *testing.T) {
	// Beale's classic cycling example (cycles under naive most-negative
	// pivoting); Bland's rule must terminate at objective -0.05.
	p := NewProblem(4)
	_ = p.SetObjective([]float64{-0.75, 150, -0.02, 6})
	_ = addDense(p, []float64{0.25, -60, -0.04, 9}, LE, 0)
	_ = addDense(p, []float64{0.5, -90, -0.02, 3}, LE, 0)
	_ = addDense(p, []float64{0, 0, 1, 0}, LE, 1)
	s := solveOK(t, p)
	wantOptimal(t, s, -0.05)
}

func TestRedundantConstraints(t *testing.T) {
	// Duplicate equality rows leave a redundant row after phase I.
	p := NewProblem(2)
	_ = p.SetObjective([]float64{1, 1})
	_ = addDense(p, []float64{1, 1}, EQ, 2)
	_ = addDense(p, []float64{1, 1}, EQ, 2)
	_ = addDense(p, []float64{2, 2}, EQ, 4)
	s := solveOK(t, p)
	wantOptimal(t, s, 2)
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(5)
	_ = p.SetObjective([]float64{1, 0, 0, 0, 1})
	if err := p.AddSparseConstraint([]int{0, 4}, []float64{1, 1}, GE, 2); err != nil {
		t.Fatal(err)
	}
	s := solveOK(t, p)
	wantOptimal(t, s, 2)
	// Repeated indices accumulate.
	p2 := NewProblem(2)
	_ = p2.SetObjective([]float64{1, 0})
	_ = p2.AddSparseConstraint([]int{0, 0}, []float64{1, 1}, GE, 4) // 2 x0 >= 4
	s2 := solveOK(t, p2)
	wantOptimal(t, s2, 2)
}

func TestAPIErrors(t *testing.T) {
	p := NewProblem(2)
	if err := p.SetObjective([]float64{1}); err == nil {
		t.Error("short objective accepted")
	}
	if err := p.AddSparseConstraint([]int{0}, []float64{1, 2}, LE, 0); err == nil {
		t.Error("mismatched sparse constraint accepted")
	}
	if err := p.AddSparseConstraint([]int{7}, []float64{1}, LE, 0); err == nil {
		t.Error("out-of-range sparse index accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewProblem(0) did not panic")
		}
	}()
	NewProblem(0)
}

func TestZeroObjectiveFeasibilityProblem(t *testing.T) {
	// Pure feasibility: objective 0 everywhere.
	p := NewProblem(2)
	_ = addDense(p, []float64{1, 1}, EQ, 5)
	s := solveOK(t, p)
	wantOptimal(t, s, 0)
	if math.Abs(s.X[0]+s.X[1]-5) > 1e-6 {
		t.Errorf("x = %v does not satisfy x0+x1=5", s.X)
	}
}

// transportationInstance builds min Σ c_ij x_ij with row supplies and
// column demands — the structure of the paper's SD formulation for a fixed
// central node.
func transportationLP(cost [][]float64, supply, demand []float64) *Problem {
	rows, cols := len(cost), len(cost[0])
	p := NewProblem(rows * cols)
	obj := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			obj[i*cols+j] = cost[i][j]
		}
	}
	_ = p.SetObjective(obj)
	for i := 0; i < rows; i++ {
		idx := make([]int, cols)
		cf := make([]float64, cols)
		for j := 0; j < cols; j++ {
			idx[j] = i*cols + j
			cf[j] = 1
		}
		_ = p.AddSparseConstraint(idx, cf, LE, supply[i])
	}
	for j := 0; j < cols; j++ {
		idx := make([]int, rows)
		cf := make([]float64, rows)
		for i := 0; i < rows; i++ {
			idx[i] = i*cols + j
			cf[i] = 1
		}
		_ = p.AddSparseConstraint(idx, cf, EQ, demand[j])
	}
	return p
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers × 2 consumers; optimum assigns cheap edges first.
	cost := [][]float64{{1, 4}, {3, 2}}
	p := transportationLP(cost, []float64{3, 3}, []float64{2, 2})
	s := solveOK(t, p)
	// Cheapest: x00=2 (cost 2), x11=2 (cost 4) → 6.
	wantOptimal(t, s, 6)
}

// Property: on random feasible transportation instances the simplex
// optimum (a) satisfies every constraint and (b) is never beaten by a
// random feasible integral allocation (greedy check).
func TestQuickTransportationOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 2+r.Intn(3), 2+r.Intn(3)
		cost := make([][]float64, rows)
		supply := make([]float64, rows)
		total := 0
		for i := range cost {
			cost[i] = make([]float64, cols)
			for j := range cost[i] {
				cost[i][j] = float64(1 + r.Intn(9))
			}
			s := 1 + r.Intn(5)
			supply[i] = float64(s)
			total += s
		}
		demand := make([]float64, cols)
		remaining := total
		for j := 0; j < cols; j++ {
			d := r.Intn(remaining + 1)
			demand[j] = float64(d)
			remaining -= d
		}
		p := transportationLP(cost, supply, demand)
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		// Check feasibility of the reported solution.
		for i := 0; i < rows; i++ {
			sum := 0.0
			for j := 0; j < cols; j++ {
				x := s.X[i*cols+j]
				if x < -1e-7 {
					return false
				}
				sum += x
			}
			if sum > supply[i]+1e-6 {
				return false
			}
		}
		for j := 0; j < cols; j++ {
			sum := 0.0
			for i := 0; i < rows; i++ {
				sum += s.X[i*cols+j]
			}
			if math.Abs(sum-demand[j]) > 1e-6 {
				return false
			}
		}
		// Greedy feasible fill must not beat the optimum.
		greedy := 0.0
		left := append([]float64(nil), supply...)
		for j := 0; j < cols; j++ {
			need := demand[j]
			// Fill from cheapest available supplier.
			for need > 1e-9 {
				bi := -1
				for i := 0; i < rows; i++ {
					if left[i] > 1e-9 && (bi < 0 || cost[i][j] < cost[bi][j]) {
						bi = i
					}
				}
				if bi < 0 {
					return false // infeasible shouldn't happen
				}
				take := math.Min(left[bi], need)
				greedy += take * cost[bi][j]
				left[bi] -= take
				need -= take
			}
		}
		return s.Objective <= greedy+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: weak duality spot-check on random standard-form LPs
// min c·x, Ax >= b, x >= 0: any feasible dual y (y >= 0, yA <= c) has
// y·b <= optimum. We construct y from the solved LP's tight rows crudely —
// instead, simpler: the optimum of a GE-form LP must weakly exceed the
// optimum after dropping a constraint (relaxation can only lower the min).
func TestQuickRelaxationMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(3)
		rows := 2 + r.Intn(3)
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = float64(1 + r.Intn(5)) // positive → bounded
		}
		type rowT struct {
			c   []float64
			rhs float64
		}
		var rowsData []rowT
		for k := 0; k < rows; k++ {
			c := make([]float64, n)
			for i := range c {
				c[i] = float64(r.Intn(4))
			}
			c[r.Intn(n)] += 1 // ensure the row is satisfiable
			rowsData = append(rowsData, rowT{c, float64(1 + r.Intn(6))})
		}
		full := NewProblem(n)
		_ = full.SetObjective(obj)
		for _, rw := range rowsData {
			_ = addDense(full, rw.c, GE, rw.rhs)
		}
		sFull, err := full.Solve()
		if err != nil || sFull.Status != Optimal {
			return false
		}
		relaxed := NewProblem(n)
		_ = relaxed.SetObjective(obj)
		for i, rw := range rowsData {
			if i == 0 {
				continue // drop one constraint
			}
			_ = addDense(relaxed, rw.c, GE, rw.rhs)
		}
		sRel, err := relaxed.Solve()
		if err != nil || sRel.Status != Optimal {
			return false
		}
		return sRel.Objective <= sFull.Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRelationAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("Relation strings wrong")
	}
	if Relation(9).String() != "Relation(9)" {
		t.Error("unknown relation string wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("Status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status string wrong")
	}
}
