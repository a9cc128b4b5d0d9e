package inventory

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"affinitycluster/internal/model"
)

func mustInv(t *testing.T, max [][]int) *Inventory {
	t.Helper()
	inv, err := NewFromMatrix(max)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// tableII builds the capacity relationship of Table II of the paper:
// rack R1 holds N1 (2×V1, 3×V2) and N2 (3×V1, 1×V3); rack R2 holds N3
// (2×V2, 1×V3). Columns are V1, V2, V3.
func tableII(t *testing.T) *Inventory {
	return mustInv(t, [][]int{
		{2, 3, 0},
		{3, 0, 1},
		{0, 2, 1},
	})
}

func TestTableIIAvailability(t *testing.T) {
	inv := tableII(t)
	a := inv.Available()
	want := []int{5, 5, 2}
	for j := range want {
		if a[j] != want[j] {
			t.Errorf("A[%d] = %d, want %d", j, a[j], want[j])
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewFromMatrixRejectsBadInput(t *testing.T) {
	if _, err := NewFromMatrix(nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewFromMatrix([][]int{{}}); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := NewFromMatrix([][]int{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := NewFromMatrix([][]int{{1, -2}}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestAllocateReleaseRoundTrip(t *testing.T) {
	inv := tableII(t)
	alloc := [][]int{
		{1, 2, 0},
		{1, 0, 1},
		{0, 0, 0},
	}
	if err := inv.Allocate(alloc); err != nil {
		t.Fatal(err)
	}
	if got := inv.RemainingAt(0, 0); got != 1 {
		t.Errorf("L[0][0] = %d, want 1", got)
	}
	if got := inv.Allocated(1, 2); got != 1 {
		t.Errorf("C[1][2] = %d, want 1", got)
	}
	a := inv.Available()
	if a[0] != 3 || a[1] != 3 || a[2] != 1 {
		t.Errorf("A = %v, want [3 3 1]", a)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := inv.Release(alloc); err != nil {
		t.Fatal(err)
	}
	a = inv.Available()
	if a[0] != 5 || a[1] != 5 || a[2] != 2 {
		t.Errorf("A after release = %v, want [5 5 2]", a)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateFailsAtomically(t *testing.T) {
	inv := tableII(t)
	bad := [][]int{
		{2, 0, 0},
		{0, 0, 2}, // node 1 has only 1 V3
		{0, 0, 0},
	}
	err := inv.Allocate(bad)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	// Nothing changed — including the part that would have fit.
	if inv.Allocated(0, 0) != 0 {
		t.Error("partial allocation leaked")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRejectsNegativeAndBadShape(t *testing.T) {
	inv := tableII(t)
	if err := inv.Allocate([][]int{{1, 0, 0}}); err == nil {
		t.Error("wrong row count accepted")
	}
	if err := inv.Allocate([][]int{{1, 0}, {0, 0}, {0, 0}}); err == nil {
		t.Error("wrong column count accepted")
	}
	if err := inv.Allocate([][]int{{-1, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestReleaseRejectsOverRelease(t *testing.T) {
	inv := tableII(t)
	if err := inv.Release([][]int{{1, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err == nil {
		t.Error("release of unallocated VMs accepted")
	}
	if err := inv.Release([][]int{{-1, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err == nil {
		t.Error("negative release accepted")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCanSatisfy(t *testing.T) {
	inv := tableII(t)
	if !inv.CanSatisfy(model.Request{5, 5, 2}) {
		t.Error("full plant request refused")
	}
	if inv.CanSatisfy(model.Request{6, 0, 0}) {
		t.Error("oversized request admitted")
	}
	if inv.CanSatisfy(model.Request{1, 1}) {
		t.Error("wrong-length request admitted")
	}
	// After allocating everything, nothing is satisfiable.
	if err := inv.Allocate(inv.Remaining()); err != nil {
		t.Fatal(err)
	}
	if inv.CanSatisfy(model.Request{1, 0, 0}) {
		t.Error("request admitted on empty inventory")
	}
	if !inv.CanEverSatisfy(model.Request{1, 0, 0}) {
		t.Error("CanEverSatisfy should reflect M, not L")
	}
	if inv.CanEverSatisfy(model.Request{6, 0, 0}) {
		t.Error("CanEverSatisfy admitted beyond plant capacity")
	}
}

func TestSetCapacity(t *testing.T) {
	inv := New(2, 2)
	if err := inv.SetCapacity(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := inv.Available()[0]; got != 4 {
		t.Errorf("A[0] = %d, want 4", got)
	}
	if err := inv.SetCapacity(0, 0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if err := inv.SetCapacity(5, 0, 1); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := inv.Allocate([][]int{{3, 0}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := inv.SetCapacity(0, 0, 2); err == nil {
		t.Error("capacity shrink below allocation accepted")
	}
	if err := inv.SetCapacity(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if got := inv.RemainingAt(0, 0); got != 2 {
		t.Errorf("L[0][0] = %d after grow, want 2", got)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotsDoNotAlias(t *testing.T) {
	inv := tableII(t)
	l := inv.Remaining()
	l[0][0] = 99
	if inv.RemainingAt(0, 0) == 99 {
		t.Error("Remaining() aliases internal state")
	}
	m := inv.CapacityTotals()
	m[0] = 99
	if inv.CapacityTotals()[0] == 99 {
		t.Error("CapacityTotals() aliases internal state")
	}
	c := inv.AllocatedMatrix()
	c[0][0] = 99
	if inv.Allocated(0, 0) == 99 {
		t.Error("AllocatedMatrix() aliases internal state")
	}
	a := inv.Available()
	a[0] = 99
	if inv.Available()[0] == 99 {
		t.Error("Available() aliases internal state")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	inv := tableII(t)
	cl := inv.Clone()
	if err := cl.Allocate([][]int{{2, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if inv.Allocated(0, 0) != 0 {
		t.Error("Clone shares state with original")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	inv := tableII(t)
	v0 := inv.Version()
	if err := inv.Allocate([][]int{{1, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if inv.Version() == v0 {
		t.Error("Version did not change after Allocate")
	}
	// Failed mutation leaves version unchanged.
	v1 := inv.Version()
	_ = inv.Allocate([][]int{{100, 0, 0}, {0, 0, 0}, {0, 0, 0}})
	if inv.Version() != v1 {
		t.Error("Version changed after failed Allocate")
	}
}

func TestMove(t *testing.T) {
	inv := tableII(t)
	if err := inv.Allocate([][]int{{2, 0, 0}, {0, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	// Move one V1 from node 0 to node 1 (which has 3 free V1 slots).
	if err := inv.Move(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if inv.Allocated(0, 0) != 1 || inv.Allocated(1, 0) != 1 {
		t.Errorf("allocations after move: %d, %d", inv.Allocated(0, 0), inv.Allocated(1, 0))
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Availability is unchanged by a move.
	if got := inv.Available()[0]; got != 3 {
		t.Errorf("A[0] = %d, want 3", got)
	}
	// Error paths.
	if err := inv.Move(0, 0, 0); err == nil {
		t.Error("same-node move accepted")
	}
	if err := inv.Move(2, 1, 0); err == nil {
		t.Error("move of unallocated VM accepted")
	}
	if err := inv.Move(0, 9, 0); err == nil {
		t.Error("out-of-range move accepted")
	}
	if err := inv.Move(1, 2, 0); !errors.Is(err, ErrInsufficient) {
		t.Errorf("move into full node: err = %v", err)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of feasible allocates and matching releases
// preserves the invariants, and releasing everything restores A.
func TestQuickAllocateReleasePreservesInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 4+r.Intn(4), 1+r.Intn(3)
		max := make([][]int, n)
		for i := range max {
			max[i] = make([]int, m)
			for j := range max[i] {
				max[i][j] = r.Intn(5)
			}
		}
		inv, err := NewFromMatrix(max)
		if err != nil {
			return false
		}
		before := inv.Available()
		var allocs [][][]int
		for step := 0; step < 5; step++ {
			l := inv.Remaining()
			a := make([][]int, n)
			for i := range a {
				a[i] = make([]int, m)
				for j := range a[i] {
					if l[i][j] > 0 {
						a[i][j] = r.Intn(l[i][j] + 1)
					}
				}
			}
			if err := inv.Allocate(a); err != nil {
				return false
			}
			if inv.CheckInvariants() != nil {
				return false
			}
			allocs = append(allocs, a)
		}
		for _, a := range allocs {
			if err := inv.Release(a); err != nil {
				return false
			}
			if inv.CheckInvariants() != nil {
				return false
			}
		}
		after := inv.Available()
		for j := range before {
			if before[j] != after[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAllocateRelease(t *testing.T) {
	// 8 workers each repeatedly grab one V0 from node 0 and give it back;
	// capacity 4 bounds concurrency. Invariants must hold throughout.
	inv := mustInv(t, [][]int{{4, 0}, {0, 0}})
	one := [][]int{{1, 0}, {0, 0}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := inv.Allocate(one); err != nil {
					continue // contended; someone else holds all 4
				}
				if err := inv.Release(one); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if inv.Allocated(0, 0) != 0 {
		t.Errorf("leftover allocation %d", inv.Allocated(0, 0))
	}
}

func TestFailAndRestoreNode(t *testing.T) {
	inv := mustInv(t, [][]int{{3, 2}, {1, 1}})
	if err := inv.Allocate([][]int{{2, 1}, {0, 0}}); err != nil {
		t.Fatal(err)
	}
	lost, err := inv.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if lost[0] != 2 || lost[1] != 1 {
		t.Errorf("lost = %v, want [2 1]", lost)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if inv.Capacity(0, 0) != 0 || inv.RemainingAt(0, 0) != 0 || inv.Allocated(0, 0) != 0 {
		t.Error("failed node still shows capacity or allocation")
	}
	if got := inv.Available(); got[0] != 1 || got[1] != 1 {
		t.Errorf("avail = %v, want [1 1]", got)
	}
	if failed := inv.FailedNodes(); len(failed) != 1 || failed[0] != 0 {
		t.Errorf("FailedNodes = %v", failed)
	}
	if _, err := inv.FailNode(0); err == nil {
		t.Error("double failure accepted")
	}
	if err := inv.RestoreNode(1); err == nil {
		t.Error("restore of healthy node accepted")
	}
	if err := inv.RestoreNode(0); err != nil {
		t.Fatal(err)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The node comes back empty at full pre-failure capacity.
	if inv.Capacity(0, 0) != 3 || inv.Capacity(0, 1) != 2 {
		t.Error("capacity not restored")
	}
	if inv.Allocated(0, 0) != 0 {
		t.Error("restored node should be empty")
	}
	if err := inv.RestoreNode(0); err == nil {
		t.Error("double restore accepted")
	}
	if len(inv.FailedNodes()) != 0 {
		t.Errorf("FailedNodes after restore = %v", inv.FailedNodes())
	}
}

func TestFailNodeRangeAndClone(t *testing.T) {
	inv := mustInv(t, [][]int{{2, 2}, {2, 2}})
	if _, err := inv.FailNode(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := inv.FailNode(2); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := inv.FailNode(1); err != nil {
		t.Fatal(err)
	}
	// A clone carries the failure state independently.
	c := inv.Clone()
	if err := c.RestoreNode(1); err != nil {
		t.Fatal(err)
	}
	if len(inv.FailedNodes()) != 1 {
		t.Error("restore on clone leaked into original")
	}
	if err := inv.RestoreNode(1); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityTotalsTrackMutators checks the kept per-type capacity
// totals behind CanEverSatisfy against a brute-force column sum of M
// after every capacity mutator, and that CheckInvariants agrees.
func TestCapacityTotalsTrackMutators(t *testing.T) {
	inv := mustInv(t, [][]int{{3, 2}, {1, 0}, {0, 4}})
	var clone *Inventory
	steps := []struct {
		name string
		do   func() error
	}{
		{"NewFromMatrix", func() error { return nil }},
		{"SetCapacity grow", func() error { return inv.SetCapacity(1, 1, 5) }},
		{"SetCapacity shrink", func() error { return inv.SetCapacity(0, 0, 1) }},
		{"Allocate", func() error { return inv.Allocate([][]int{{1, 1}, {0, 2}, {0, 0}}) }},
		{"FailNode", func() error { _, err := inv.FailNode(1); return err }},
		{"Clone", func() error { clone = inv.Clone(); return nil }},
		{"RestoreNode", func() error { return inv.RestoreNode(1) }},
		{"FailNode again", func() error { _, err := inv.FailNode(2); return err }},
	}
	colSum := func(inv *Inventory) []int {
		out := make([]int, inv.types)
		for _, row := range inv.max {
			for j, k := range row {
				out[j] += k
			}
		}
		return out
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for _, x := range []*Inventory{inv, clone} {
			if x == nil {
				continue
			}
			want := colSum(x)
			for j := range want {
				if x.capSum[j] != want[j] {
					t.Fatalf("after %s: capSum = %v, want %v", st.name, x.capSum, want)
				}
				r := make(model.Request, x.types)
				r[j] = want[j]
				if !x.CanEverSatisfy(r) {
					t.Errorf("after %s: CanEverSatisfy rejects %v at the column total", st.name, r)
				}
				r[j]++
				if x.CanEverSatisfy(r) {
					t.Errorf("after %s: CanEverSatisfy accepts %v above the column total", st.name, r)
				}
			}
			if err := x.CheckInvariants(); err != nil {
				t.Fatalf("after %s: %v", st.name, err)
			}
		}
	}
	// The clone keeps its own totals: the original's later restore and
	// failure must not have reached it.
	if got, want := clone.capSum, []int{1, 6}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("clone capSum = %v, want %v", got, want)
	}
	inv.capSum[0]++
	if err := inv.CheckInvariants(); err == nil {
		t.Error("CheckInvariants missed a drifted capacity total")
	}
}
