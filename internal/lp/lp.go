// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c·x
//	subject to  a_i·x (≤ | = | ≥) b_i   for every constraint i
//	            x ≥ 0
//
// It exists because the paper formulates the shortest-distance (SD) and
// global shortest-distance (GSD) provisioning problems as integer linear
// programs, and the Go standard library offers no LP solver. With their
// central nodes fixed both are transportation problems, whose LP
// relaxations have integral vertices, so package sdexact solves them here
// without branching: SolveSDLP and the oracle of SolveGSD's leaf solver.
//
// The implementation is a textbook dense tableau simplex with Bland's rule
// (guaranteeing termination in the presence of degeneracy) and a Phase I
// artificial-variable start. It is written for correctness and clarity at
// the problem sizes of the paper's evaluation (tens of nodes, a few VM
// types), not for sparse industrial LPs.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the comparison operator of one constraint row.
type Relation int

// Constraint relations.
const (
	LE Relation = iota // a·x ≤ b
	EQ                 // a·x = b
	GE                 // a·x ≥ b
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// constraint is one row a·x (rel) b.
type constraint struct {
	coeffs []float64
	rel    Relation
	rhs    float64
}

// Problem is a linear program under construction. All variables are
// implicitly non-negative; use AddConstraint for upper bounds.
type Problem struct {
	numVars     int
	objective   []float64
	constraints []constraint
}

// NewProblem creates a problem with n non-negative variables and a zero
// objective.
func NewProblem(n int) *Problem {
	if n <= 0 {
		panic(fmt.Sprintf("lp: NewProblem(%d) needs at least one variable", n))
	}
	return &Problem{numVars: n, objective: make([]float64, n)}
}

// SetObjective installs the minimization objective c·x. The slice is
// copied; its length must equal the problem's variable count.
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.numVars {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.numVars)
	}
	copy(p.objective, c)
	return nil
}

// SetObjectiveCoeff sets one objective coefficient.
func (p *Problem) SetObjectiveCoeff(v int, c float64) error {
	if v < 0 || v >= p.numVars {
		return fmt.Errorf("lp: variable %d out of range [0,%d)", v, p.numVars)
	}
	p.objective[v] = c
	return nil
}

// AddConstraint appends the row coeffs·x (rel) rhs. The slice is copied.
func (p *Problem) AddConstraint(coeffs []float64, rel Relation, rhs float64) error {
	if len(coeffs) != p.numVars {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coeffs), p.numVars)
	}
	p.constraints = append(p.constraints, constraint{
		coeffs: append([]float64(nil), coeffs...),
		rel:    rel,
		rhs:    rhs,
	})
	return nil
}

// AddSparseConstraint appends a row given as variable-index/coefficient
// pairs; unspecified coefficients are zero.
func (p *Problem) AddSparseConstraint(vars []int, coeffs []float64, rel Relation, rhs float64) error {
	if len(vars) != len(coeffs) {
		return fmt.Errorf("lp: sparse constraint has %d indices but %d coefficients", len(vars), len(coeffs))
	}
	row := make([]float64, p.numVars)
	for i, v := range vars {
		if v < 0 || v >= p.numVars {
			return fmt.Errorf("lp: variable %d out of range [0,%d)", v, p.numVars)
		}
		row[v] += coeffs[i]
	}
	p.constraints = append(p.constraints, constraint{coeffs: row, rel: rel, rhs: rhs})
	return nil
}

// Solution is the result of a successful Solve call.
type Solution struct {
	Status    Status
	X         []float64 // variable values; nil unless Status == Optimal
	Objective float64   // c·x at the optimum; meaningless otherwise
}

const (
	eps     = 1e-9
	maxIter = 200000
)

// ErrIterationLimit is returned when the simplex exceeds its iteration
// budget — with Bland's rule this indicates a numerically hostile model
// rather than cycling.
var ErrIterationLimit = errors.New("lp: simplex iteration limit exceeded")

// Solve runs the two-phase simplex and returns the outcome. A non-nil
// error is reserved for internal failures (iteration limit); infeasibility
// and unboundedness are reported through Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	t := newTableau(p)
	// Phase I: minimize the sum of artificial variables.
	if t.numArtificial > 0 {
		t.installPhaseIObjective()
		if err := t.iterate(); err != nil {
			return nil, err
		}
		if t.objectiveValue() > eps {
			return &Solution{Status: Infeasible}, nil
		}
		if err := t.driveOutArtificials(); err != nil {
			return nil, err
		}
	}
	// Phase II: minimize the real objective.
	t.installPhaseIIObjective(p.objective)
	status, err := t.iteratePhaseII()
	if err != nil {
		return nil, err
	}
	if status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	x := t.extract(p.numVars)
	obj := 0.0
	for i, c := range p.objective {
		obj += c * x[i]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau holds the simplex working state. Columns are laid out as:
// [0, numVars) structural variables, then slack/surplus, then artificials.
type tableau struct {
	rows          int // number of constraints
	cols          int // total variables
	numVars       int
	numArtificial int
	artStart      int         // column index of the first artificial
	a             [][]float64 // rows × cols constraint matrix
	b             []float64   // right-hand sides, kept ≥ 0
	cost          []float64   // current objective row
	costShift     float64     // constant subtracted from the objective
	basis         []int       // basis[r] = column basic in row r
	phaseII       bool
}

func newTableau(p *Problem) *tableau {
	rows := len(p.constraints)
	// Count extra columns.
	slack := 0
	art := 0
	for _, c := range p.constraints {
		rhs := c.rhs
		rel := c.rel
		if rhs < 0 {
			// Normalize to non-negative RHS by flipping the row.
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		switch rel {
		case LE:
			slack++ // slack enters the basis directly
		case GE:
			slack++ // surplus
			art++
		case EQ:
			art++
		}
	}
	cols := p.numVars + slack + art
	t := &tableau{
		rows:          rows,
		cols:          cols,
		numVars:       p.numVars,
		numArtificial: art,
		artStart:      p.numVars + slack,
		a:             make([][]float64, rows),
		b:             make([]float64, rows),
		cost:          make([]float64, cols),
		basis:         make([]int, rows),
	}
	slackCol := p.numVars
	artCol := t.artStart
	for r, c := range p.constraints {
		row := make([]float64, cols)
		rhs := c.rhs
		rel := c.rel
		sign := 1.0
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		for j, v := range c.coeffs {
			row[j] = sign * v
		}
		t.b[r] = rhs
		switch rel {
		case LE:
			row[slackCol] = 1
			t.basis[r] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[r] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[r] = artCol
			artCol++
		}
		t.a[r] = row
	}
	return t
}

// installPhaseIObjective sets cost = Σ artificials, reduced against the
// current (artificial) basis.
func (t *tableau) installPhaseIObjective() {
	for j := range t.cost {
		t.cost[j] = 0
	}
	t.costShift = 0
	for j := t.artStart; j < t.cols; j++ {
		t.cost[j] = 1
	}
	// Price out basic artificials: subtract their rows from the cost row.
	for r, bc := range t.basis {
		if bc >= t.artStart {
			for j := 0; j < t.cols; j++ {
				t.cost[j] -= t.a[r][j]
			}
			t.costShift -= t.b[r]
		}
	}
	t.phaseII = false
}

// installPhaseIIObjective sets the real objective, priced out against the
// current basis, and forbids artificials from re-entering by leaving their
// reduced costs untouched (they are excluded from pivoting in phase II).
func (t *tableau) installPhaseIIObjective(obj []float64) {
	for j := range t.cost {
		t.cost[j] = 0
	}
	t.costShift = 0
	copy(t.cost, obj)
	for r, bc := range t.basis {
		if c := t.cost[bc]; c != 0 {
			for j := 0; j < t.cols; j++ {
				t.cost[j] -= c * t.a[r][j]
			}
			t.costShift -= c * t.b[r]
		}
	}
	t.phaseII = true
}

// objectiveValue returns the current objective (phase I: sum of
// artificials).
func (t *tableau) objectiveValue() float64 { return -t.costShift }

// pivotLimit returns the last pivot-eligible column (exclusive): phase II
// never re-admits artificial columns.
func (t *tableau) pivotLimit() int {
	if t.phaseII {
		return t.artStart
	}
	return t.cols
}

// iterate runs simplex pivots until optimality (phase I never reports
// unbounded: the artificial objective is bounded below by 0).
func (t *tableau) iterate() error {
	for it := 0; it < maxIter; it++ {
		col := t.chooseEntering()
		if col < 0 {
			return nil
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			return errors.New("lp: phase I reported unbounded — internal error")
		}
		t.pivot(row, col)
	}
	return ErrIterationLimit
}

// iteratePhaseII runs pivots and can report Unbounded.
func (t *tableau) iteratePhaseII() (Status, error) {
	for it := 0; it < maxIter; it++ {
		col := t.chooseEntering()
		if col < 0 {
			return Optimal, nil
		}
		row := t.chooseLeaving(col)
		if row < 0 {
			return Unbounded, nil
		}
		t.pivot(row, col)
	}
	return Optimal, ErrIterationLimit
}

// chooseEntering applies Bland's rule: the lowest-indexed column with a
// negative reduced cost, or -1 at optimality.
func (t *tableau) chooseEntering() int {
	limit := t.pivotLimit()
	for j := 0; j < limit; j++ {
		if t.cost[j] < -eps {
			return j
		}
	}
	return -1
}

// chooseLeaving applies the minimum-ratio test with Bland's tie-break
// (lowest basis column index), or -1 if the column is unbounded.
func (t *tableau) chooseLeaving(col int) int {
	best := -1
	bestRatio := math.Inf(1)
	for r := 0; r < t.rows; r++ {
		if t.a[r][col] > eps {
			ratio := t.b[r] / t.a[r][col]
			if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (best < 0 || t.basis[r] < t.basis[best])) {
				best = r
				bestRatio = ratio
			}
		}
	}
	return best
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	pv := t.a[row][col]
	inv := 1 / pv
	for j := 0; j < t.cols; j++ {
		t.a[row][j] *= inv
	}
	t.b[row] *= inv
	t.a[row][col] = 1 // kill residual rounding
	for r := 0; r < t.rows; r++ {
		if r == row {
			continue
		}
		f := t.a[r][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			t.a[r][j] -= f * t.a[row][j]
		}
		t.a[r][col] = 0
		t.b[r] -= f * t.b[row]
		if t.b[r] < 0 && t.b[r] > -eps {
			t.b[r] = 0
		}
	}
	f := t.cost[col]
	if f != 0 {
		for j := 0; j < t.cols; j++ {
			t.cost[j] -= f * t.a[row][j]
		}
		t.cost[col] = 0
		t.costShift -= f * t.b[row]
	}
	t.basis[row] = col
}

// driveOutArtificials pivots any artificial still basic at the end of
// phase I out of the basis (its value is 0). Rows that cannot be pivoted
// are redundant and are neutralized.
func (t *tableau) driveOutArtificials() error {
	for r := 0; r < t.rows; r++ {
		if t.basis[r] < t.artStart {
			continue
		}
		pivoted := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[r][j]) > eps {
				t.pivot(r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant row: all structural coefficients are 0 and so is
			// b[r] (phase I optimum was 0). Leave it; it can never pivot.
			if t.b[r] > eps {
				return errors.New("lp: inconsistent redundant row after phase I — internal error")
			}
		}
	}
	return nil
}

// extract reads the values of the first n structural variables.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for r, bc := range t.basis {
		if bc < n {
			v := t.b[r]
			if v < 0 && v > -eps {
				v = 0
			}
			x[bc] = v
		}
	}
	return x
}
