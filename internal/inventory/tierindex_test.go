package inventory

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

func tierTestPlant(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultDistances())
	clouds := 1 + rng.Intn(3)
	for c := 0; c < clouds; c++ {
		b.AddCloud()
		racks := 1 + rng.Intn(3)
		for r := 0; r < racks; r++ {
			b.AddRack()
			b.AddNodes(1 + rng.Intn(4))
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// TestAttachedIndexTracksMutators drives every inventory mutator —
// Allocate, Release, Move, FailNode, RestoreNode, and the
// sparse list forms — and checks after each step that the attached index's
// aggregates match a fresh rebuild.
func TestAttachedIndexTracksMutators(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	for trial := 0; trial < 25; trial++ {
		topo := tierTestPlant(t, rng)
		n := topo.Nodes()
		m := 1 + rng.Intn(3)
		max := make([][]int, n)
		for i := range max {
			max[i] = make([]int, m)
			for j := range max[i] {
				max[i][j] = rng.Intn(5)
			}
		}
		inv, err := NewFromMatrix(max)
		if err != nil {
			t.Fatalf("trial %d: NewFromMatrix: %v", trial, err)
		}
		idx, err := inv.AttachTierIndex(topo)
		if err != nil {
			t.Fatalf("trial %d: AttachTierIndex: %v", trial, err)
		}
		if inv.TierIndex() != idx {
			t.Fatalf("trial %d: TierIndex() did not return the attached index", trial)
		}
		failed := map[int]bool{}
		var ents []affinity.VMEntry
		for step := 0; step < 80; step++ {
			i := topology.NodeID(rng.Intn(n))
			j := model.VMTypeID(rng.Intn(m))
			switch rng.Intn(6) {
			case 0:
				a := newMatrix(n, m)
				a[i][j] = rng.Intn(3)
				_ = inv.Allocate(a)
			case 1:
				a := newMatrix(n, m)
				a[i][j] = rng.Intn(3)
				_ = inv.Release(a)
			case 2:
				_ = inv.Move(i, topology.NodeID(rng.Intn(n)), j)
			case 3:
				if !failed[int(i)] {
					if _, err := inv.FailNode(i); err == nil {
						failed[int(i)] = true
					}
				} else if err := inv.RestoreNode(i); err == nil {
					failed[int(i)] = false
				}
			case 4:
				ents = append(ents[:0], affinity.VMEntry{Node: i, Type: j, Count: rng.Intn(3)})
				_ = inv.AllocateList(ents)
			case 5:
				ents = append(ents[:0], affinity.VMEntry{Node: i, Type: j, Count: rng.Intn(3)})
				_ = inv.ReleaseList(ents)
			}
			if err := idx.CheckConsistent(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestAttachTierIndexMidChurn attaches an index to a plant that already
// carries allocations and failed nodes: the index must start consistent
// with the live L, keep tracking later churn, and a second attach must
// replace the first, which then stops being maintained.
func TestAttachTierIndexMidChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(1208))
	topo := topology.PaperSimPlant()
	n := topo.Nodes()
	const m = 3
	max := make([][]int, n)
	for i := range max {
		max[i] = make([]int, m)
		for j := range max[i] {
			max[i][j] = 1 + rng.Intn(4)
		}
	}
	inv, err := NewFromMatrix(max)
	if err != nil {
		t.Fatalf("NewFromMatrix: %v", err)
	}
	churn := func(steps int) {
		for s := 0; s < steps; s++ {
			i := topology.NodeID(rng.Intn(n))
			j := model.VMTypeID(rng.Intn(m))
			switch rng.Intn(3) {
			case 0:
				_ = inv.AllocateList([]affinity.VMEntry{{Node: i, Type: j, Count: 1 + rng.Intn(2)}})
			case 1:
				_ = inv.ReleaseList([]affinity.VMEntry{{Node: i, Type: j, Count: 1}})
			case 2:
				if _, err := inv.FailNode(i); err == nil && rng.Intn(2) == 0 {
					_ = inv.RestoreNode(i)
				}
			}
		}
	}
	check := func(stage string, idx *affinity.TierIndex) {
		t.Helper()
		if err := idx.CheckConsistent(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := inv.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}

	churn(40)
	allocated := 0
	for _, row := range inv.AllocatedMatrix() {
		allocated += model.Sum(row)
	}
	if len(inv.failed) == 0 || allocated == 0 {
		t.Fatalf("churn left %d failed nodes and %d allocated VMs; the attach must meet both",
			len(inv.failed), allocated)
	}
	first, err := inv.AttachTierIndex(topo)
	if err != nil {
		t.Fatalf("AttachTierIndex: %v", err)
	}
	check("attached mid-churn", first)
	churn(40)
	check("churn after the attach", first)

	second, err := inv.AttachTierIndex(topo)
	if err != nil {
		t.Fatalf("AttachTierIndex: %v", err)
	}
	if second == first || inv.TierIndex() != second {
		t.Fatal("a second attach did not replace the first index")
	}
	avail := append([]int(nil), first.Avail()...)
	churn(40)
	if slices.Equal(inv.Available(), avail) {
		t.Fatal("churn after the second attach mutated nothing")
	}
	check("churn after the second attach", second)
	if !slices.Equal(first.Avail(), avail) {
		t.Errorf("replaced index still maintained: availability %v after churn, was %v", first.Avail(), avail)
	}
}

// TestListFormsMatchDense checks AllocateList/ReleaseList against the dense
// Allocate/Release on the same cells, including repeated-cell entries and
// failure atomicity.
func TestListFormsMatchDense(t *testing.T) {
	max := [][]int{{3, 2}, {1, 4}, {0, 5}}
	sparse, err := NewFromMatrix(max)
	if err != nil {
		t.Fatalf("NewFromMatrix: %v", err)
	}
	dense, _ := NewFromMatrix(max)

	ents := []affinity.VMEntry{
		{Node: 0, Type: 0, Count: 1},
		{Node: 0, Type: 0, Count: 2}, // repeated cell: total 3 = capacity
		{Node: 2, Type: 1, Count: 4},
	}
	if err := sparse.AllocateList(ents); err != nil {
		t.Fatalf("AllocateList: %v", err)
	}
	a := newMatrix(3, 2)
	a[0][0] = 3
	a[2][1] = 4
	if err := dense.Allocate(a); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if !slices.EqualFunc(sparse.remain, dense.remain, slices.Equal[[]int]) {
		t.Fatalf("remaining mismatch: sparse %v, dense %v", sparse.remain, dense.remain)
	}

	// Over-allocating via repeated cells must fail atomically.
	before := sparse.Remaining()
	err = sparse.AllocateList([]affinity.VMEntry{
		{Node: 1, Type: 1, Count: 3},
		{Node: 1, Type: 1, Count: 3},
	})
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("AllocateList overflow: err = %v, want ErrInsufficient", err)
	}
	after := sparse.Remaining()
	for i := range before {
		for j := range before[i] {
			if before[i][j] != after[i][j] {
				t.Fatalf("failed AllocateList mutated state at (%d,%d)", i, j)
			}
		}
	}

	// Releasing more than allocated must fail atomically too.
	err = sparse.ReleaseList([]affinity.VMEntry{
		{Node: 0, Type: 0, Count: 2},
		{Node: 0, Type: 0, Count: 2},
	})
	if err == nil {
		t.Fatalf("ReleaseList over-release succeeded")
	}
	if err := sparse.CheckInvariants(); err != nil {
		t.Fatalf("after failed ReleaseList: %v", err)
	}
	if err := sparse.ReleaseList([]affinity.VMEntry{{Node: 0, Type: 0, Count: 3}}); err != nil {
		t.Fatalf("ReleaseList: %v", err)
	}
	if got := sparse.remain[0][0]; got != 3 {
		t.Fatalf("L[0][0] = %d after release, want 3", got)
	}
}

// TestRemainingViewAliases checks the view reflects mutations without
// copying.
func TestRemainingViewAliases(t *testing.T) {
	inv, err := NewFromMatrix([][]int{{2, 2}})
	if err != nil {
		t.Fatalf("NewFromMatrix: %v", err)
	}
	v := inv.RemainingView()
	if err := inv.AllocateList([]affinity.VMEntry{{Node: 0, Type: 1, Count: 2}}); err != nil {
		t.Fatalf("AllocateList: %v", err)
	}
	if v[0][1] != 0 {
		t.Fatalf("RemainingView did not track mutation: %v", v[0])
	}
	snap := inv.Remaining()
	if err := inv.ReleaseList([]affinity.VMEntry{{Node: 0, Type: 1, Count: 1}}); err != nil {
		t.Fatalf("ReleaseList: %v", err)
	}
	if snap[0][1] != 0 {
		t.Fatalf("Remaining snapshot aliased live state: %v", snap[0])
	}
}
