package sdexact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// errClass names the three outcomes an exact solver may report.
func errClass(err error) string {
	switch {
	case err == nil:
		return "solved"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	default:
		return "malformed"
	}
}

// FuzzSolveSD drives both SD solvers on plants of up to 2×3×3 nodes with
// up to 3 VM types. Capacity cells are drawn from [0, capMax%4]; an odd
// negCell sets cell (negCell/2) mod n·m to -1, and demands run from -1
// to 4. SolveSD and SolveSDLP must report the same outcome: solved,
// ErrInfeasible, or malformed input, which is exactly the inputs holding
// a negative number. When both solve, their distances must be equal and
// both allocations must satisfy the request within L.
func FuzzSolveSD(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), []byte{3, 2})
	f.Add(int64(2), uint8(1), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0), []byte{5, 4, 1})
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0), []byte{6})
	f.Add(int64(6), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(0), []byte{0, 3})
	// Malformed: a negative cell that the column's sum hides, and a
	// negative demand beside a positive one.
	f.Add(int64(4), uint8(0), uint8(0), uint8(2), uint8(0), uint8(3), uint8(1), []byte{2})
	f.Add(int64(5), uint8(0), uint8(0), uint8(2), uint8(1), uint8(1), uint8(0), []byte{0, 3})

	f.Fuzz(func(t *testing.T, seed int64, clouds, racks, nodes, types, capMax, negCell uint8, demand []byte) {
		tp, err := topology.Uniform(1+int(clouds)%2, 1+int(racks)%3, 1+int(nodes)%3, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		n, m := tp.Nodes(), 1+int(types)%3
		rng := rand.New(rand.NewSource(seed))
		negative := false
		l := make([][]int, n)
		for i := range l {
			l[i] = make([]int, m)
			for j := range l[i] {
				l[i][j] = rng.Intn(1 + int(capMax)%4)
			}
		}
		if negCell%2 == 1 {
			c := int(negCell/2) % (n * m)
			l[c/m][c%m] = -1
			negative = true
		}
		r := make(model.Request, m)
		for j := range r {
			if j < len(demand) {
				r[j] = int(demand[j]%6) - 1
			}
			negative = negative || r[j] < 0
		}

		fast, errFast := SolveSD(tp, l, r)
		slow, errSlow := SolveSDLP(tp, l, r)
		if errClass(errFast) != errClass(errSlow) {
			t.Fatalf("SolveSD: %v, SolveSDLP: %v\nL %v\nR %v", errFast, errSlow, l, r)
		}
		if negative != (errClass(errFast) == "malformed") {
			t.Fatalf("input with negative=%v: %v\nL %v\nR %v", negative, errFast, l, r)
		}
		if errFast != nil {
			return
		}
		if err := fast.Alloc.Validate(r, l); err != nil {
			t.Fatalf("SolveSD: %v\nL %v\nR %v", err, l, r)
		}
		if err := slow.Alloc.Validate(r, l); err != nil {
			t.Fatalf("SolveSDLP: %v\nL %v\nR %v", err, l, r)
		}
		if math.Abs(fast.Distance-slow.Distance) > 1e-6 {
			t.Fatalf("SolveSD distance %v, SolveSDLP %v\nL %v\nR %v", fast.Distance, slow.Distance, l, r)
		}
	})
}
