package affinity

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

func buildPlant(t *testing.T, spec [][]int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(topology.DefaultDistances())
	for _, racks := range spec {
		b.AddCloud()
		for _, nodes := range racks {
			b.AddRack()
			b.AddNodes(nodes)
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func tierTestPlant(t *testing.T, rng *rand.Rand) *topology.Topology {
	t.Helper()
	clouds := 1 + rng.Intn(3)
	spec := make([][]int, clouds)
	for c := range spec {
		racks := 1 + rng.Intn(4)
		spec[c] = make([]int, racks)
		for r := range spec[c] {
			spec[c][r] = 1 + rng.Intn(5)
		}
	}
	return buildPlant(t, spec)
}

// TestTierIndexApplyMatchesRebuild hammers Apply with random cell
// mutations — including row zeroing and restore, cell by cell as
// FailNode / RestoreNode report them — and checks every aggregate
// against a fresh rebuild after each step.
func TestTierIndexApplyMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		topo := tierTestPlant(t, rng)
		n := topo.Nodes()
		m := 1 + rng.Intn(3)
		l := make([][]int, n)
		for i := range l {
			l[i] = make([]int, m)
			for j := range l[i] {
				l[i][j] = rng.Intn(6)
			}
		}
		idx, err := NewTierIndex(topo, l)
		if err != nil {
			t.Fatalf("trial %d: NewTierIndex: %v", trial, err)
		}
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1: // single-cell mutation, both signs
				i := topology.NodeID(rng.Intn(n))
				j := rng.Intn(m)
				d := rng.Intn(5) - 2
				if l[i][j]+d < 0 {
					d = -l[i][j]
				}
				l[i][j] += d
				idx.Apply(i, j, d)
			case 2: // zero a row (FailNode shape)
				i := topology.NodeID(rng.Intn(n))
				for j := 0; j < m; j++ {
					d := -l[i][j]
					l[i][j] = 0
					idx.Apply(i, j, d)
				}
			case 3: // restore a row to random values (RestoreNode shape)
				i := topology.NodeID(rng.Intn(n))
				for j := 0; j < m; j++ {
					nv := rng.Intn(6)
					d := nv - l[i][j]
					l[i][j] = nv
					idx.Apply(i, j, d)
				}
			}
			if err := idx.CheckConsistent(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// TestTierIndexCloudMaxColTracksMaxRack walks one column of cloud 0
// through the cases Apply repairs differently: a decrease at one of two
// racks holding the cloud's maximum (no rescan), a decrease at the last
// one (the cloud's racks are rescanned), and rises at a rack that then
// carries the maximum. Cloud 1 must not move.
func TestTierIndexCloudMaxColTracksMaxRack(t *testing.T) {
	topo := buildPlant(t, [][]int{{2, 2, 2}, {1}})
	l := [][]int{{4}, {1}, {4}, {0}, {2}, {3}, {9}}
	idx, err := NewTierIndex(topo, l)
	if err != nil {
		t.Fatalf("NewTierIndex: %v", err)
	}
	if got := idx.CloudMaxCol(0)[0]; got != 4 {
		t.Fatalf("CloudMaxCol(0) = %d, want 4", got)
	}
	for k, step := range []struct {
		node topology.NodeID
		v    int
		want int
	}{
		{0, 1, 4}, // rack 0 drops; rack 1 still holds 4
		{2, 0, 3}, // rack 1, the last holder, drops: rack 2's 3 carries it
		{4, 0, 3}, // a non-maximal node of rack 2 drops
		{3, 5, 5}, // rack 1 rises above every rack
		{5, 6, 6}, // rack 2 rises above rack 1
		{5, 0, 5}, // and drops back below it
	} {
		d := step.v - l[step.node][0]
		l[step.node][0] = step.v
		idx.Apply(step.node, 0, d)
		if err := idx.CheckConsistent(); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if got := idx.CloudMaxCol(0)[0]; got != step.want {
			t.Fatalf("step %d: CloudMaxCol(0) = %d, want %d", k, got, step.want)
		}
		if got := idx.CloudMaxCol(1)[0]; got != 9 {
			t.Fatalf("step %d: CloudMaxCol(1) = %d, want 9", k, got)
		}
	}
}

// TestTierIndexViews spot-checks the accessor views against direct
// recomputation on a fixed plant.
func TestTierIndexViews(t *testing.T) {
	topo := buildPlant(t, [][]int{{2, 3}, {4}})
	l := [][]int{
		{1, 0}, {2, 5}, // rack 0 (cloud 0)
		{0, 0}, {3, 1}, {0, 2}, // rack 1 (cloud 0)
		{7, 7}, {1, 1}, {0, 4}, {2, 2}, // rack 2 (cloud 1)
	}
	idx, err := NewTierIndex(topo, l)
	if err != nil {
		t.Fatalf("NewTierIndex: %v", err)
	}
	if got := idx.Avail(); got[0] != 16 || got[1] != 22 {
		t.Fatalf("Avail = %v", got)
	}
	if got := idx.RackRemain(1); got[0] != 3 || got[1] != 3 {
		t.Fatalf("RackRemain(1) = %v", got)
	}
	if got := idx.CloudRemain(1); got[0] != 10 || got[1] != 14 {
		t.Fatalf("CloudRemain(1) = %v", got)
	}
	if got := idx.RackMaxCol(0); got[0] != 2 || got[1] != 5 {
		t.Fatalf("RackMaxCol(0) = %v", got)
	}
	if got := idx.RackMaxTotal(2); got != 14 {
		t.Fatalf("RackMaxTotal(2) = %d", got)
	}
	if got := idx.CloudMaxNodeTotal(0); got != 7 {
		t.Fatalf("CloudMaxNodeTotal(0) = %d", got)
	}
	if got := idx.CloudMaxCol(0); got[0] != 3 || got[1] != 5 {
		t.Fatalf("CloudMaxCol(0) = %v", got)
	}
	if got := idx.CloudMaxCol(1); got[0] != 7 || got[1] != 7 {
		t.Fatalf("CloudMaxCol(1) = %v", got)
	}
}

// TestSparseAllocRoundTrip checks the sparse form densifies correctly
// and resets to an empty shape.
func TestSparseAllocRoundTrip(t *testing.T) {
	var s SparseAlloc
	s.Reset(4, 2)
	s.Add(1, 0, 3)
	s.Add(1, 1, 1)
	s.Add(3, 0, 2)
	d := s.ToDense()
	if d[1][0] != 3 || d[1][1] != 1 || d[3][0] != 2 || d[0][0] != 0 {
		t.Fatalf("ToDense = %v", d)
	}
	s.Reset(4, 2)
	if len(s.Entries) != 0 || s.NumNodes != 4 {
		t.Fatalf("Reset left %d entries", len(s.Entries))
	}
}

// TestTierIndexRefusesOverflow: the index sums its matrix into node,
// rack, cloud and availability totals, so NewTierIndex and Rebind refuse
// a matrix whose cells sum past int instead of wrapping those totals
// negative. A total of exactly MaxInt fits.
func TestTierIndexRefusesOverflow(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 1, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	over := [][]int{{9000000000000000000}, {9000000000000000000}}
	if _, err := NewTierIndex(tp, over); !errors.Is(err, model.ErrCapacityOverflow) {
		t.Fatalf("NewTierIndex: err = %v, want ErrCapacityOverflow", err)
	}
	x, err := NewTierIndex(tp, [][]int{{math.MaxInt - 1}, {1}})
	if err != nil {
		t.Fatalf("NewTierIndex summing to MaxInt: %v", err)
	}
	if err := x.Rebind(over); !errors.Is(err, model.ErrCapacityOverflow) {
		t.Fatalf("Rebind: err = %v, want ErrCapacityOverflow", err)
	}
	if got := x.Avail(); got[0] != math.MaxInt {
		t.Fatalf("Avail() = %v after a refused Rebind, want [%d]", got, math.MaxInt)
	}
}
