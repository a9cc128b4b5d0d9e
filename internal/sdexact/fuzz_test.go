package sdexact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

// errClass names the three outcomes an SD solver may report.
func errClass(err error) string {
	switch {
	case err == nil:
		return "solved"
	case errors.Is(err, ErrInfeasible), errors.Is(err, placement.ErrInsufficient):
		return "infeasible"
	default:
		return "malformed"
	}
}

// FuzzSolveSD drives Algorithm 1 (the dense OnlineHeuristic.Place) and
// its oracle SolveSDLP on plants of up to 3×3×3 nodes with up to 3 VM
// types. Capacity cells are drawn from [0, capMax%4]; huge%4 cells are
// set to math.MaxInt/2, so two or three of them can push the matrix's
// total past math.MaxInt; an odd negCell then sets cell (negCell/2) mod
// n·m to -1; demands run from -1 to 4. Both must report the same
// outcome: solved, infeasible, or malformed input, which is exactly the
// inputs holding a negative number or cells summing past math.MaxInt —
// the latter, without a negative number, refused by both with
// model.ErrCapacityOverflow. When both solve, Algorithm 1's distance
// must equal the optimum and both allocations must satisfy the request
// within L.
func FuzzSolveSD(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), []byte{3, 2})
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0), uint8(0), []byte{5, 4, 1})
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0), uint8(0), []byte{6})
	f.Add(int64(6), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), uint8(0), []byte{0, 3})
	f.Add(int64(7), uint8(2), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), []byte{5, 5})
	// Malformed: a negative cell that the column's sum hides, and a
	// negative demand beside a positive one.
	f.Add(int64(4), uint8(0), uint8(0), uint8(2), uint8(0), uint8(3), uint8(1), uint8(0), []byte{2})
	f.Add(int64(5), uint8(0), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), []byte{0, 3})
	// Cells near math.MaxInt: one fits in int, two of them with the
	// small cells beside them do not, and three never do.
	f.Add(int64(8), uint8(1), uint8(1), uint8(1), uint8(0), uint8(2), uint8(0), uint8(1), []byte{5})
	f.Add(int64(9), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(0), uint8(2), []byte{5})
	f.Add(int64(10), uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), uint8(7), []byte{2, 3})

	f.Fuzz(func(t *testing.T, seed int64, clouds, racks, nodes, types, capMax, negCell, huge uint8, demand []byte) {
		tp, err := topology.Uniform(1+int(clouds)%3, 1+int(racks)%3, 1+int(nodes)%3, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		n, m := tp.Nodes(), 1+int(types)%3
		rng := rand.New(rand.NewSource(seed))
		l := make([][]int, n)
		for i := range l {
			l[i] = make([]int, m)
			for j := range l[i] {
				l[i][j] = rng.Intn(1 + int(capMax)%4)
			}
		}
		for k := 0; k < int(huge)%4; k++ {
			c := (int(huge/4) + 7*k) % (n * m)
			l[c/m][c%m] = math.MaxInt / 2
		}
		if negCell%2 == 1 {
			c := int(negCell/2) % (n * m)
			l[c/m][c%m] = -1
		}
		r := make(model.Request, m)
		for j := range r {
			if j < len(demand) {
				r[j] = int(demand[j]%6) - 1
			}
		}
		negative, sum := false, uint64(0) // sum cannot wrap: at most 3 cells exceed 3
		for _, row := range l {
			for _, c := range row {
				negative = negative || c < 0
				if c > 0 {
					sum += uint64(c)
				}
			}
		}
		for _, v := range r {
			negative = negative || v < 0
		}
		overflow := sum > math.MaxInt

		alloc, errFast := (&placement.OnlineHeuristic{}).Place(tp, l, r)
		opt, errSlow := SolveSDLP(tp, l, r)
		if errClass(errFast) != errClass(errSlow) {
			t.Fatalf("Algorithm 1: %v, SolveSDLP: %v\nL %v\nR %v", errFast, errSlow, l, r)
		}
		if (negative || overflow) != (errClass(errFast) == "malformed") {
			t.Fatalf("input with negative=%v overflow=%v: %v\nL %v\nR %v", negative, overflow, errFast, l, r)
		}
		if overflow && !negative {
			for _, err := range []error{errFast, errSlow} {
				if !errors.Is(err, model.ErrCapacityOverflow) {
					t.Fatalf("overflowing input: %v, want model.ErrCapacityOverflow\nL %v\nR %v", err, l, r)
				}
			}
		}
		if errFast != nil {
			return
		}
		if err := alloc.Validate(r, l); err != nil {
			t.Fatalf("Algorithm 1: %v\nL %v\nR %v", err, l, r)
		}
		if err := opt.Alloc.Validate(r, l); err != nil {
			t.Fatalf("SolveSDLP: %v\nL %v\nR %v", err, l, r)
		}
		if d, _ := alloc.Distance(tp); math.Abs(d-opt.Distance) > 1e-6 {
			t.Fatalf("Algorithm 1 distance %v, optimum %v\nL %v\nR %v", d, opt.Distance, l, r)
		}
	})
}
