package inventory

import (
	"fmt"
	"slices"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// FuzzInventoryOps decodes an op sequence over a small plant and runs it
// against an inventory with an attached tier index and against a naive
// model that keeps M and the allocation C explicitly. The shape byte
// picks the plant (1–2 clouds, 1–2 racks each, 1–4 nodes per rack, 1–3
// types); data holds the capacity cells (0–3 each) and then the ops, each
// a kind byte and its arguments: AllocateList and ReleaseList of 1–4
// entries whose nodes and types may fall one outside the plant, whose
// counts run −1..3 and whose cells may repeat; dense Allocate and Release
// of matrices that may have a row too few or too many or a short last
// row; Move; FailNode and RestoreNode. After every op the call must
// succeed exactly when the model's does, and Remaining, AllocatedMatrix,
// Available, CapacityTotals and FailNode's lost row must equal the
// model's, so a failed op changed nothing. CheckInvariants and the
// index's CheckConsistent must hold throughout.
func FuzzInventoryOps(f *testing.F) {
	// Bytes after the capacities: a kind, then for a list op the entry
	// count less one and node+1, type+1, count+1 per entry.
	// Shape 0 is one node of one type: allocate one VM, then release two.
	f.Add(uint8(0), []byte{2, 0, 0, 1, 1, 2, 1, 0, 1, 1, 3})
	// Shape 0x14 is one rack of two nodes with two types: allocate, then
	// fail node 0 while its last type still has room, and restore it.
	f.Add(uint8(0x14), []byte{2, 2, 2, 2, 0, 0, 1, 1, 2, 5, 1, 6, 1})
	// Allocate one VM on node 0, then release a matrix a row short that
	// holds it.
	f.Add(uint8(0x14), []byte{2, 2, 2, 2, 0, 0, 1, 1, 2, 3, 13, 0, 0, 2})
	// Allocate one VM, then release it in a list whose second entry asks
	// for three more.
	f.Add(uint8(0x14), []byte{2, 2, 2, 2, 0, 0, 1, 1, 2, 1, 1, 1, 1, 2, 1, 1, 4})
	// Shape 0x13 is two clouds of two single-node racks each, two types:
	// repeated cells, Moves and their errors, dense round trips and
	// mis-shaped or negative matrices, double failures and restores, an
	// allocation on a failed node, and the closing release.
	f.Add(uint8(0x13), []byte{3, 1, 2, 3, 1, 2, 3, 3,
		0, 2, 1, 1, 2, 1, 1, 3, 3, 2, 3,
		4, 0, 1, 0, 4, 0, 0, 0, 4, 3, 1, 0, 4, 0, 4, 0,
		2, 16, 3, 0, 4, 1, 1, 2, 3, 16, 3, 0, 4, 1, 1, 2,
		2, 14, 0, 0, 1, 3, 15, 3, 0, 2, 2, 8, 1, 1, 0,
		5, 3, 5, 3, 0, 0, 3, 1, 2, 6, 3, 6, 3, 5, 0, 6, 5,
		1, 1, 1, 1, 3, 2, 1, 2})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		tp, err := topology.Uniform(1+int(shape&1), 1+int(shape>>1&1), 1+int(shape>>2&3), topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		n, m := tp.Nodes(), 1+int(shape>>4&3)%3
		rd := opReader(data)
		max := newMatrix(n, m)
		for _, row := range max {
			for j := range row {
				row[j] = int(rd.next() % 4)
			}
		}
		inv, err := NewFromMatrix(max)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := inv.AttachTierIndex(tp)
		if err != nil {
			t.Fatal(err)
		}
		md := &invModel{max: cloneMatrix(max), alloc: newMatrix(n, m), failed: map[int][]int{}}
		entries := func() []affinity.VMEntry {
			ents := make([]affinity.VMEntry, 1+rd.next()%4)
			for k := range ents {
				ents[k] = affinity.VMEntry{
					Node:  topology.NodeID(int(rd.next()%byte(n+2)) - 1),
					Type:  model.VMTypeID(int(rd.next()%byte(m+2)) - 1),
					Count: int(rd.next()%5) - 1,
				}
			}
			return ents
		}
		for step := 0; rd.more() && step < 64; step++ {
			var (
				op        string
				err       error
				ok        bool
				lost, mdL []int
			)
			switch rd.next() % 7 {
			case 0:
				ents := entries()
				op, err, ok = fmt.Sprint("AllocateList", ents), inv.AllocateList(ents), md.apply(ents, 1)
			case 1:
				ents := entries()
				op, err, ok = fmt.Sprint("ReleaseList", ents), inv.ReleaseList(ents), md.apply(ents, -1)
			case 2:
				a, shaped := denseOp(&rd, n, m)
				op, err = fmt.Sprint("Allocate", a), inv.Allocate(a)
				ok = shaped && md.apply(affinity.Allocation(a).Sparse(), 1)
			case 3:
				a, shaped := denseOp(&rd, n, m)
				op, err = fmt.Sprint("Release", a), inv.Release(a)
				ok = shaped && md.apply(affinity.Allocation(a).Sparse(), -1)
			case 4:
				from, to := topology.NodeID(rd.next()%byte(n+1)), topology.NodeID(rd.next()%byte(n+1))
				j := model.VMTypeID(rd.next() % byte(m+1))
				op = fmt.Sprintf("Move(%d, %d, %d)", from, to, j)
				err = inv.Move(from, to, j)
				ok = md.move(int(from), int(to), int(j))
			case 5:
				i := int(rd.next()%byte(n+2)) - 1
				op = fmt.Sprintf("FailNode(%d)", i)
				lost, err = inv.FailNode(topology.NodeID(i))
				mdL, ok = md.fail(i)
			case 6:
				i := int(rd.next()%byte(n+2)) - 1
				op = fmt.Sprintf("RestoreNode(%d)", i)
				err = inv.RestoreNode(topology.NodeID(i))
				ok = md.restore(i)
			}
			if (err == nil) != ok {
				t.Fatalf("step %d: %s: err = %v, model succeeds = %v", step, op, err, ok)
			}
			if !slices.Equal(lost, mdL) {
				t.Fatalf("step %d: %s lost %v, model %v", step, op, lost, mdL)
			}
			md.check(t, inv, fmt.Sprintf("step %d: after %s (err %v)", step, op, err))
			if !slices.Equal(idx.Avail(), inv.Available()) {
				t.Fatalf("step %d: after %s index availability %v, inventory %v", step, op, idx.Avail(), inv.Available())
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("step %d: after %s: %v", step, op, err)
			}
			if err := idx.CheckConsistent(); err != nil {
				t.Fatalf("step %d: after %s: %v", step, op, err)
			}
		}
	})
}

// opReader hands out the fuzz input one byte at a time, then zeros.
type opReader []byte

func (r *opReader) more() bool { return len(*r) > 0 }

func (r *opReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// denseOp decodes a dense matrix op: a selector byte whose low three bits
// pick the shape (5: a row too few, 6: a row too many, 7: the last row a
// column short, else n×m) and whose next two bits the number of cells
// set, then a row, a column and a value (−1..3) per cell. shaped reports
// whether the matrix is n×m.
func denseOp(rd *opReader, n, m int) (a [][]int, shaped bool) {
	sel := rd.next()
	rows := n
	switch sel % 8 {
	case 5:
		rows = n - 1
	case 6:
		rows = n + 1
	}
	a = make([][]int, rows)
	for i := range a {
		a[i] = make([]int, m)
	}
	if sel%8 == 7 {
		a[rows-1] = a[rows-1][:m-1]
	}
	for range sel >> 3 % 4 {
		if rows == 0 {
			break
		}
		row := a[int(rd.next())%rows]
		if len(row) > 0 {
			row[int(rd.next())%len(row)] = int(rd.next()%5) - 1
		}
	}
	return a, sel%8 < 5
}

// invModel is the naive oracle of FuzzInventoryOps: the capacity matrix
// M, the allocation C and the saved rows of failed nodes, each op
// checked against them cell by cell and applied only when it fits.
type invModel struct {
	max, alloc [][]int
	failed     map[int][]int
}

// apply adds sign·Count to C for every entry, failing without a change
// when an entry is out of range or negative, or a running cell total
// leaves [0, M].
func (md *invModel) apply(ents []affinity.VMEntry, sign int) bool {
	next := cloneMatrix(md.alloc)
	for _, e := range ents {
		i, j := int(e.Node), int(e.Type)
		if i < 0 || i >= len(md.max) || j < 0 || j >= len(md.max[0]) || e.Count < 0 {
			return false
		}
		next[i][j] += sign * e.Count
		if next[i][j] < 0 || next[i][j] > md.max[i][j] {
			return false
		}
	}
	md.alloc = next
	return true
}

func (md *invModel) move(from, to, j int) bool {
	n, m := len(md.max), len(md.max[0])
	if from >= n || to >= n || j >= m || from == to ||
		md.alloc[from][j] == 0 || md.alloc[to][j] == md.max[to][j] {
		return false
	}
	md.alloc[from][j]--
	md.alloc[to][j]++
	return true
}

func (md *invModel) fail(i int) ([]int, bool) {
	if _, down := md.failed[i]; i < 0 || i >= len(md.max) || down {
		return nil, false
	}
	lost := slices.Clone(md.alloc[i])
	md.failed[i] = slices.Clone(md.max[i])
	clear(md.max[i])
	clear(md.alloc[i])
	return lost, true
}

func (md *invModel) restore(i int) bool {
	saved, down := md.failed[i]
	if !down {
		return false
	}
	copy(md.max[i], saved)
	delete(md.failed, i)
	return true
}

// check compares every snapshot accessor of inv with the model.
func (md *invModel) check(t *testing.T, inv *Inventory, at string) {
	t.Helper()
	m := len(md.max[0])
	rem := newMatrix(len(md.max), m)
	avail, caps := make([]int, m), make([]int, m)
	for i, row := range md.max {
		for j, k := range row {
			rem[i][j] = k - md.alloc[i][j]
			avail[j] += rem[i][j]
			caps[j] += k
		}
	}
	eq := func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal[[]int]) }
	if got := inv.Remaining(); !eq(got, rem) {
		t.Fatalf("%s: Remaining %v, model %v", at, got, rem)
	}
	if got := inv.AllocatedMatrix(); !eq(got, md.alloc) {
		t.Fatalf("%s: AllocatedMatrix %v, model %v", at, got, md.alloc)
	}
	if got := inv.Available(); !slices.Equal(got, avail) {
		t.Fatalf("%s: Available %v, model %v", at, got, avail)
	}
	if got := inv.CapacityTotals(); !slices.Equal(got, caps) {
		t.Fatalf("%s: CapacityTotals %v, model %v", at, got, caps)
	}
}
