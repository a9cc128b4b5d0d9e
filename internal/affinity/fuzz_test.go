package affinity

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// FuzzFirstCover holds the cover index to a linear lowest-ID scan. It
// draws a plant whose node count may or may not be a multiple of
// coverBlock, re-imported with permuted node and rack IDs when scramble
// is set (scramblePlant), and a capacity matrix, one cell of which is
// raised to MaxInt/2 when capMax's top bit is set. Each op byte then
// changes the matrix and reports the change: one cell taken from or
// given back through Apply, or a row zeroed and restored to its drawn
// capacity through ApplyRow, the way FailNode and RestoreNode change
// it. After every step FirstCover must return the scan's node for the
// all-zero request, one-type requests, a node's own row, a drawn
// request and near-MaxInt requests, and CheckConsistent must pass.
func FuzzFirstCover(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(15), uint8(1), uint8(4), false, []byte{0, 1, 2, 3})
	f.Add(int64(2), uint8(1), uint8(1), uint8(8), uint8(2), uint8(5), true, []byte{2, 0, 0, 3, 1, 2})
	f.Add(int64(3), uint8(2), uint8(3), uint8(16), uint8(0), uint8(0x83), false, []byte{0, 0, 0, 0, 2, 3})
	f.Add(int64(4), uint8(2), uint8(2), uint8(20), uint8(2), uint8(0x87), true, []byte{2, 2, 2, 3, 3, 0, 1})
	// Takes lower a block's maximum and its ancestors'; the give-back
	// raises them again.
	f.Add(int64(-16), uint8(0), uint8(1), uint8(8), uint8(0), uint8(0x83), false, []byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, clouds, racksPer, nodesPer, width, capMax uint8, scramble bool, ops []byte) {
		tp, err := topology.Uniform(1+int(clouds)%3, 1+int(racksPer)%4, 1+int(nodesPer)%40, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		if scramble {
			tp = scramblePlant(t, rng, tp)
		}
		n, m, hi := tp.Nodes(), 1+int(width)%3, 1+int(capMax&0x7f)%8
		capRow := make([][]int, n)
		l := make([][]int, n)
		for i := range l {
			capRow[i] = make([]int, m)
			for j := range capRow[i] {
				capRow[i][j] = rng.Intn(hi)
			}
		}
		if capMax&0x80 != 0 {
			capRow[rng.Intn(n)][rng.Intn(m)] = math.MaxInt / 2
		}
		for i := range l {
			l[i] = append([]int(nil), capRow[i]...)
		}
		idx, err := NewTierIndex(tp, l)
		if err != nil {
			t.Fatal(err)
		}
		checkFirstCover(t, rng, idx, -1)
		deltas := make([]int, m)
		for step, op := range ops[:min(len(ops), 64)] {
			i := topology.NodeID(rng.Intn(n))
			switch op % 4 {
			case 0: // take from one cell
				j := rng.Intn(m)
				d := -rng.Intn(l[i][j] + 1)
				l[i][j] += d
				idx.Apply(i, j, d)
			case 1: // give one cell back, up to its capacity
				j := rng.Intn(m)
				d := rng.Intn(capRow[i][j] - l[i][j] + 1)
				l[i][j] += d
				idx.Apply(i, j, d)
			case 2, 3: // zero the row, or restore it to its capacity
				for j := range deltas {
					v := 0
					if op%4 == 3 {
						v = capRow[i][j]
					}
					deltas[j] = v - l[i][j]
					l[i][j] = v
				}
				idx.ApplyRow(i, deltas)
			}
			checkFirstCover(t, rng, idx, step)
		}
	})
}

// checkFirstCover compares FirstCover with a linear lowest-ID scan over
// the index's matrix on a fixed family of requests, then checks every
// aggregate against a rebuild.
func checkFirstCover(t *testing.T, rng *rand.Rand, idx *TierIndex, step int) {
	t.Helper()
	l := idx.Matrix()
	m := idx.Types()
	reqs := []model.Request{make(model.Request, m), append(model.Request(nil), l[rng.Intn(len(l))]...)}
	drawn := make(model.Request, m)
	huge := make(model.Request, m)
	for j := range drawn {
		drawn[j] = rng.Intn(9)
		huge[j] = math.MaxInt
	}
	reqs = append(reqs, drawn, huge)
	for j := range m {
		for _, v := range []int{1, 1 + rng.Intn(8), math.MaxInt / 2, math.MaxInt - 1, math.MaxInt} {
			one := make(model.Request, m)
			one[j] = v
			reqs = append(reqs, one)
		}
	}
	for _, r := range reqs {
		want := topology.NodeID(-1)
		for i, row := range l {
			if model.Covers(row, r) {
				want = topology.NodeID(i)
				break
			}
		}
		if got := idx.FirstCover(r); got != want {
			t.Fatalf("step %d: FirstCover(%v) = %d, linear scan %d\nL %v", step, r, got, want, l)
		}
	}
	if err := idx.CheckConsistent(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// scramblePlant re-imports tp through its JSON form with node and rack
// IDs permuted, so racks hold scattered node IDs and clouds interleave
// in ID order: a block of the cover index then spans racks and clouds.
func scramblePlant(t testing.TB, rng *rand.Rand, tp *topology.Topology) *topology.Topology {
	t.Helper()
	nodePerm, rackPerm := rng.Perm(tp.Nodes()), rng.Perm(tp.Racks())
	nodes := make([]topology.Node, tp.Nodes())
	for i, id := range nodePerm {
		old := topology.NodeID(i)
		nodes[id] = topology.Node{ID: topology.NodeID(id), Rack: rackPerm[tp.RackOf(old)], Cloud: tp.CloudOf(old)}
	}
	data, err := json.Marshal(map[string]any{
		"distances": tp.Distances(), "nodes": nodes, "racks": tp.Racks(), "clouds": tp.Clouds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := new(topology.Topology)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}
