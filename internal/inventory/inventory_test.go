package inventory

import (
	"errors"
	"math"
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
	if got := inv.remain[0][0]; got != 1 {
		t.Errorf("L[0][0] = %d, want 1", got)
	}
	if got := inv.alloc[1][2]; got != 1 {
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
	if inv.alloc[0][0] != 0 {
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

// TestNewFromMatrixCopiesInput: the inventory owns its capacity matrix,
// so the caller's rows neither steer it after construction nor see its
// allocations.
func TestNewFromMatrixCopiesInput(t *testing.T) {
	max := [][]int{{2, 3, 0}, {3, 0, 1}, {0, 2, 1}}
	inv := mustInv(t, max)
	max[0][0] = 9
	if got := inv.max[0][0]; got != 2 {
		t.Errorf("M[0][0] = %d after the caller's write, want 2", got)
	}
	if err := inv.Allocate([][]int{{2, 0, 0}, {1, 0, 0}, {0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if max[0][0] != 9 || max[1][0] != 3 {
		t.Errorf("caller's matrix = %v after Allocate", max)
	}
	if got := inv.Available()[0]; got != 2 {
		t.Errorf("A[0] = %d, want 2", got)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotsDoNotAlias(t *testing.T) {
	inv := tableII(t)
	l := inv.Remaining()
	l[0][0] = 99
	if inv.remain[0][0] == 99 {
		t.Error("Remaining() aliases internal state")
	}
	m := inv.CapacityTotals()
	m[0] = 99
	if inv.CapacityTotals()[0] == 99 {
		t.Error("CapacityTotals() aliases internal state")
	}
	c := inv.AllocatedMatrix()
	c[0][0] = 99
	if inv.alloc[0][0] == 99 {
		t.Error("AllocatedMatrix() aliases internal state")
	}
	a := inv.Available()
	a[0] = 99
	if inv.Available()[0] == 99 {
		t.Error("Available() aliases internal state")
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
	if inv.alloc[0][0] != 1 || inv.alloc[1][0] != 1 {
		t.Errorf("allocations after move: %d, %d", inv.alloc[0][0], inv.alloc[1][0])
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
	if inv.alloc[0][0] != 0 {
		t.Errorf("leftover allocation %d", inv.alloc[0][0])
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
	if inv.max[0][0] != 0 || inv.remain[0][0] != 0 || inv.alloc[0][0] != 0 {
		t.Error("failed node still shows capacity or allocation")
	}
	if got := inv.Available(); got[0] != 1 || got[1] != 1 {
		t.Errorf("avail = %v, want [1 1]", got)
	}
	if _, ok := inv.failed[0]; len(inv.failed) != 1 || !ok {
		t.Errorf("failed nodes = %v", inv.failed)
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
	if inv.max[0][0] != 3 || inv.max[0][1] != 2 {
		t.Error("capacity not restored")
	}
	if inv.alloc[0][0] != 0 {
		t.Error("restored node should be empty")
	}
	if err := inv.RestoreNode(0); err == nil {
		t.Error("double restore accepted")
	}
	if len(inv.failed) != 0 {
		t.Errorf("failed nodes after restore = %v", inv.failed)
	}
}

func TestFailNodeRange(t *testing.T) {
	inv := mustInv(t, [][]int{{2, 2}, {2, 2}})
	if _, err := inv.FailNode(-1); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := inv.FailNode(2); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// TestCapacityTotalsTrackMutators checks the kept per-type capacity
// totals behind CanEverSatisfy against a brute-force column sum of M
// after every capacity mutator, and that CheckInvariants agrees.
func TestCapacityTotalsTrackMutators(t *testing.T) {
	inv := mustInv(t, [][]int{{3, 2}, {1, 5}, {0, 4}})
	steps := []struct {
		name string
		do   func() error
	}{
		{"NewFromMatrix", func() error { return nil }},
		{"Allocate", func() error { return inv.Allocate([][]int{{1, 1}, {0, 2}, {0, 0}}) }},
		{"FailNode", func() error { _, err := inv.FailNode(1); return err }},
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
		want := colSum(inv)
		for j := range want {
			if inv.capSum[j] != want[j] {
				t.Fatalf("after %s: capSum = %v, want %v", st.name, inv.capSum, want)
			}
			r := make(model.Request, inv.types)
			r[j] = want[j]
			if !inv.CanEverSatisfy(r) {
				t.Errorf("after %s: CanEverSatisfy rejects %v at the column total", st.name, r)
			}
			r[j]++
			if inv.CanEverSatisfy(r) {
				t.Errorf("after %s: CanEverSatisfy accepts %v above the column total", st.name, r)
			}
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", st.name, err)
		}
	}
	inv.capSum[0]++
	if err := inv.CheckInvariants(); err == nil {
		t.Error("CheckInvariants missed a drifted capacity total")
	}
}

// TestCapacityOverflowRefused: a capacity matrix whose cells sum past int
// would wrap the availability vector negative (two cells of 9e18 read as
// −446744073709551616 available), so NewFromMatrix refuses it. A total of
// exactly MaxInt fits, and survives a node's failure and restore.
func TestCapacityOverflowRefused(t *testing.T) {
	const big = 9000000000000000000
	if _, err := NewFromMatrix([][]int{{big}, {big}}); !errors.Is(err, model.ErrCapacityOverflow) {
		t.Fatalf("NewFromMatrix over two %d cells: err = %v, want ErrCapacityOverflow", big, err)
	}
	if _, err := NewFromMatrix([][]int{{1, big}, {0, big}}); !errors.Is(err, model.ErrCapacityOverflow) {
		t.Fatalf("NewFromMatrix with one %d cell per column: err = %v, want ErrCapacityOverflow", big, err)
	}
	inv, err := NewFromMatrix([][]int{{math.MaxInt - 3, 1}, {1, 1}})
	if err != nil {
		t.Fatalf("NewFromMatrix summing to MaxInt: %v", err)
	}
	if _, err := inv.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := inv.RestoreNode(0); err != nil {
		t.Fatal(err)
	}
	if got := inv.Available(); got[0] != math.MaxInt-2 || got[1] != 2 {
		t.Fatalf("Available() = %v, want [%d 2]", got, math.MaxInt-2)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
