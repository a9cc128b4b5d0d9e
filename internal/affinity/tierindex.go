// TierIndex is the persistent form of the per-rack/per-cloud capacity
// aggregates the placement fast paths price Definition 1 from. The
// DistanceEvaluator keeps such aggregates for one cluster's VM totals;
// the TierIndex keeps them for a remaining-capacity matrix L, so the
// center scan can bound whole clouds and racks without touching their
// nodes — and, unlike the per-call scratch the placers used to rebuild,
// it is updated incrementally in O(affected tiers) as L changes.
//
// The index aliases the matrix it was built over: callers mutate L and
// then report each changed cell through Apply. Maxima are repaired by
// rescanning only the owning rack (and, when a rack-level maximum that
// dropped was the cloud's, the owning cloud's rack list), so a k-cell
// commit costs O(k·(rackSize + racksPerCloud)) worst case and O(k)
// typically. All methods that return slices return views into the
// index's storage; they are read-only and valid until the next
// Apply/Rebuild.
//
// Beside the tier aggregates the index keeps a cover index for
// Algorithm 1's single-node fast path (FirstCover): a max tree whose
// leaves hold the per-type column maxima of blocks of coverBlock
// consecutive node IDs, and whose inner nodes hold the per-type maxima
// of their children. It holds 2·L·m ints for L leaves, L the least
// power of two ≥ n/coverBlock: O(n/coverBlock·m). Apply touches it only
// when a cell moves its block's maximum: a rise climbs until an
// ancestor already holds the new value, a fall that removes the maximum
// rescans the block's coverBlock rows and climbs until an ancestor's
// maximum is unchanged, so a cell change costs O(1) typically and
// O(coverBlock + log n) worst case.
//
// A TierIndex is not safe for concurrent mutation. The inventory owns
// one under its own lock (see inventory.AttachTierIndex); batch drivers
// own private ones over their working matrices.
package affinity

import (
	"fmt"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// TierIndex holds tier-aggregated views of one remaining-capacity
// matrix L, and the cover index over its rows.
type TierIndex struct {
	t *topology.Topology
	l [][]int // the aliased matrix; rows must stay stable
	n int
	m int

	rackRemain  []int // racks×m row-major: Σ_{i∈rack} L_ij
	cloudRemain []int // clouds×m row-major: Σ_{i∈cloud} L_ij
	avail       []int // m: A_j = Σ_i L_ij
	nodeTot     []int // n: Σ_j L_ij
	rackMaxCol  []int // racks×m: max_{i∈rack} L_ij
	cloudMaxCol []int // clouds×m: max_{i∈cloud} L_ij
	rackMaxTot  []int // racks: max_{i∈rack} nodeTot[i]
	cloudMaxTot []int // clouds: max over the cloud's racks of rackMaxTot

	// cover is the cover index, heap-ordered with m columns per tree node:
	// root 1, children 2k and 2k+1, and the leaf of node block b at
	// coverLeaves+b. Leaves past the last block stay zero.
	cover       []int
	coverLeaves int // a power of two ≥ ⌈n/coverBlock⌉
}

// coverBlock is the number of consecutive node IDs under one leaf of the
// cover index (1<<coverShift). A larger block shrinks the tree and
// lengthens the row scan that settles a query and repairs a falling
// maximum.
const (
	coverShift = 4
	coverBlock = 1 << coverShift
)

// NewTierIndex builds an index over matrix l on topology t. The index
// keeps l by reference: every row must remain the same slice for the
// index's lifetime, and every subsequent mutation of a cell must be
// reported through Apply.
func NewTierIndex(t *topology.Topology, l [][]int) (*TierIndex, error) {
	n := t.Nodes()
	if len(l) != n {
		return nil, fmt.Errorf("affinity: tier index matrix has %d rows, topology has %d nodes", len(l), n)
	}
	if n == 0 {
		return nil, fmt.Errorf("affinity: tier index over empty plant")
	}
	m := len(l[0])
	if err := checkMatrix(l, m); err != nil {
		return nil, err
	}
	leaves := 1
	for leaves<<coverShift < n {
		leaves *= 2
	}
	x := &TierIndex{
		t:           t,
		l:           l,
		n:           n,
		m:           m,
		rackRemain:  make([]int, t.Racks()*m),
		cloudRemain: make([]int, t.Clouds()*m),
		avail:       make([]int, m),
		nodeTot:     make([]int, n),
		rackMaxCol:  make([]int, t.Racks()*m),
		cloudMaxCol: make([]int, t.Clouds()*m),
		rackMaxTot:  make([]int, t.Racks()),
		cloudMaxTot: make([]int, t.Clouds()),
		cover:       make([]int, 2*leaves*m),
		coverLeaves: leaves,
	}
	x.Rebuild()
	return x, nil
}

// checkMatrix refuses a matrix with a row that is not m wide, a
// negative cell, or cells that sum past int (model.AddCapacity): the
// index's rack, cloud and availability totals would wrap.
func checkMatrix(l [][]int, m int) error {
	total := 0
	for i, row := range l {
		if len(row) != m {
			return fmt.Errorf("affinity: tier index matrix ragged at row %d", i)
		}
		for j, v := range row {
			if v < 0 {
				return fmt.Errorf("affinity: tier index matrix cell [%d][%d] = %d is negative", i, j, v)
			}
			var err error
			if total, err = model.AddCapacity(total, v); err != nil {
				return fmt.Errorf("affinity: tier index matrix cell [%d][%d] = %d: %w", i, j, v, err)
			}
		}
	}
	return nil
}

// Topology returns the plant the index is built over.
//
//lint:shared the topology is immutable after construction and shared by design
func (x *TierIndex) Topology() *topology.Topology { return x.t }

// Matrix returns the aliased remaining-capacity matrix. Read-only for
// anyone who is not also calling Apply.
//
//lint:shared documented alias of the owner's matrix; read-only off the writer
func (x *TierIndex) Matrix() [][]int { return x.l }

// Types returns the type dimension m.
func (x *TierIndex) Types() int { return x.m }

// Avail returns the availability vector A_j = Σ_i L_ij as a view.
//
//lint:shared zero-copy aggregate view; coherent only between Apply calls
func (x *TierIndex) Avail() []int { return x.avail }

// RackRemain returns rack r's per-type remaining totals as a view.
//
//lint:shared zero-copy aggregate view; coherent only between Apply calls
func (x *TierIndex) RackRemain(r int) []int { return x.rackRemain[r*x.m : (r+1)*x.m] }

// CloudRemain returns cloud c's per-type remaining totals as a view.
//
//lint:shared zero-copy aggregate view; coherent only between Apply calls
func (x *TierIndex) CloudRemain(c int) []int { return x.cloudRemain[c*x.m : (c+1)*x.m] }

// RackMaxCol returns rack r's per-type maximum single-node remaining
// capacity as a view — the fast path's rack-level covering test.
//
//lint:shared zero-copy aggregate view; coherent only between Apply calls
func (x *TierIndex) RackMaxCol(r int) []int { return x.rackMaxCol[r*x.m : (r+1)*x.m] }

// CloudMaxCol returns cloud c's per-type maximum single-node remaining
// capacity as a view: the largest RackMaxCol of its racks, per type. It
// bounds the supply of any one node in the cloud, which lets the scan's
// far drain rank whole clouds before it opens their racks.
//
//lint:shared zero-copy aggregate view; coherent only between Apply calls
func (x *TierIndex) CloudMaxCol(c int) []int { return x.cloudMaxCol[c*x.m : (c+1)*x.m] }

// RackMaxTotal returns the largest per-node total remaining capacity in
// rack r.
func (x *TierIndex) RackMaxTotal(r int) int { return x.rackMaxTot[r] }

// CloudMaxNodeTotal returns the largest per-node total remaining
// capacity in cloud c.
func (x *TierIndex) CloudMaxNodeTotal(c int) int { return x.cloudMaxTot[c] }

// FirstCover returns the lowest node ID whose row covers r (L_ij ≥ R_j
// for every j), or -1 when no row does: Algorithm 1's single-node fast
// path, whatever the plant's node numbering. A subtree of the cover index
// whose column maxima miss some R_j holds no covering row, so the query
// descends into the leftmost subtree that passes, scans the leaf's rows,
// and moves right only past a block whose maxima pass while none of its
// rows covers r. r must have the index's width m.
func (x *TierIndex) FirstCover(r model.Request) topology.NodeID {
	m := x.m
	for k := 1; ; {
		if model.Covers(x.cover[k*m:(k+1)*m], r) {
			if k < x.coverLeaves {
				k *= 2
				continue
			}
			lo := (k - x.coverLeaves) << coverShift
			for i := lo; i < min(lo+coverBlock, x.n); i++ {
				if model.Covers(x.l[i], r) {
					return topology.NodeID(i)
				}
			}
		}
		// The next subtree in ID order: climb past right children, then
		// step to the right sibling; climbing off the root ends the query.
		for k&1 == 1 {
			k >>= 1
		}
		if k == 0 {
			return -1
		}
		k++
	}
}

// Rebind points the index at a different matrix of the same shape and
// rebuilds. It lets a placer keep the index dense Place builds over its
// caller's matrix and rebind it on the next call instead of
// reallocating it.
func (x *TierIndex) Rebind(l [][]int) error {
	if len(l) != x.n {
		return fmt.Errorf("affinity: tier index rebind with %d rows, index has %d", len(l), x.n)
	}
	if err := checkMatrix(l, x.m); err != nil {
		return err
	}
	x.l = l
	x.Rebuild()
	return nil
}

// Rebuild recomputes every aggregate from the matrix — O(n·m). Apply
// keeps them incrementally; Rebuild exists for construction and for the
// churn property tests' fresh-rebuild comparisons. The cover index's
// leaves fill in the same row loop as the rack and cloud aggregates.
func (x *TierIndex) Rebuild() {
	for k := range x.cover {
		x.cover[k] = 0
	}
	for k := range x.rackRemain {
		x.rackRemain[k] = 0
		x.rackMaxCol[k] = 0
	}
	for k := range x.cloudRemain {
		x.cloudRemain[k] = 0
		x.cloudMaxCol[k] = 0
	}
	for j := range x.avail {
		x.avail[j] = 0
	}
	for r := range x.rackMaxTot {
		x.rackMaxTot[r] = 0
	}
	for c := range x.cloudMaxTot {
		x.cloudMaxTot[c] = 0
	}
	m := x.m
	for i, row := range x.l {
		r := x.t.RackOf(topology.NodeID(i))
		c := x.t.CloudOf(topology.NodeID(i))
		leaf := x.cover[(x.coverLeaves+i>>coverShift)*m:][:m]
		tot := 0
		for j, v := range row {
			tot += v
			x.avail[j] += v
			x.rackRemain[r*m+j] += v
			x.cloudRemain[c*m+j] += v
			if v > x.rackMaxCol[r*m+j] {
				x.rackMaxCol[r*m+j] = v
			}
			if v > leaf[j] {
				leaf[j] = v
			}
		}
		x.nodeTot[i] = tot
		if tot > x.rackMaxTot[r] {
			x.rackMaxTot[r] = tot
		}
	}
	for r := 0; r < x.t.Racks(); r++ {
		c := x.t.CloudOfRack(r)
		if c < 0 {
			continue
		}
		if x.rackMaxTot[r] > x.cloudMaxTot[c] {
			x.cloudMaxTot[c] = x.rackMaxTot[r]
		}
		for j, v := range x.rackMaxCol[r*m : (r+1)*m] {
			if v > x.cloudMaxCol[c*m+j] {
				x.cloudMaxCol[c*m+j] = v
			}
		}
	}
	for k := x.coverLeaves - 1; k > 0; k-- {
		for j := range m {
			x.cover[k*m+j] = max(x.cover[2*k*m+j], x.cover[(2*k+1)*m+j])
		}
	}
}

// Apply folds one already-performed cell mutation into the aggregates:
// L[i][j] changed by delta (the matrix holds the new value). Sums
// update in O(1); a maximum that may have dropped is repaired by
// rescanning the owning rack, and a rack-level maximum that carried its
// cloud's triggers a rescan of that cloud's rack list.
func (x *TierIndex) Apply(i topology.NodeID, j int, delta int) {
	if delta == 0 {
		return
	}
	m := x.m
	r := x.t.RackOf(i)
	c := x.t.CloudOf(i)
	v := x.l[i][j] // new value
	x.avail[j] += delta
	x.rackRemain[r*m+j] += delta
	x.cloudRemain[c*m+j] += delta
	oldTot := x.nodeTot[i]
	newTot := oldTot + delta
	x.nodeTot[i] = newTot

	// Cover index: the leaf of i's block and the ancestors whose maximum
	// it carries.
	k := x.coverLeaves + int(i)>>coverShift
	if delta > 0 {
		for ; k > 0 && x.cover[k*m+j] < v; k >>= 1 {
			x.cover[k*m+j] = v
		}
	} else if v-delta == x.cover[k*m+j] {
		lo := int(i) &^ (coverBlock - 1)
		mc := 0
		for _, row := range x.l[lo:min(lo+coverBlock, x.n)] {
			mc = max(mc, row[j])
		}
		for k > 0 && x.cover[k*m+j] != mc {
			x.cover[k*m+j] = mc
			k >>= 1
			mc = max(x.cover[2*k*m+j], x.cover[(2*k+1)*m+j])
		}
	}

	// Per-rack per-type max, and the cloud max it may carry.
	if delta > 0 {
		if v > x.rackMaxCol[r*m+j] {
			x.rackMaxCol[r*m+j] = v
			if v > x.cloudMaxCol[c*m+j] {
				x.cloudMaxCol[c*m+j] = v
			}
		}
	} else if was := v - delta; was == x.rackMaxCol[r*m+j] {
		mc := 0
		for _, id := range x.t.RackNodes(r) {
			if w := x.l[id][j]; w > mc {
				mc = w
			}
		}
		if mc != was {
			x.rackMaxCol[r*m+j] = mc
			if was == x.cloudMaxCol[c*m+j] {
				cm := 0
				for _, rr := range x.t.CloudRacks(c) {
					if w := x.rackMaxCol[rr*m+j]; w > cm {
						cm = w
					}
				}
				x.cloudMaxCol[c*m+j] = cm
			}
		}
	}

	// Per-rack max node total, and the cloud max it may carry.
	if delta > 0 {
		if newTot > x.rackMaxTot[r] {
			x.rackMaxTot[r] = newTot
			if newTot > x.cloudMaxTot[c] {
				x.cloudMaxTot[c] = newTot
			}
		}
	} else if oldTot == x.rackMaxTot[r] {
		mt := 0
		for _, id := range x.t.RackNodes(r) {
			if w := x.nodeTot[id]; w > mt {
				mt = w
			}
		}
		if mt != x.rackMaxTot[r] {
			was := x.rackMaxTot[r]
			x.rackMaxTot[r] = mt
			if was == x.cloudMaxTot[c] {
				cm := 0
				for _, rr := range x.t.CloudRacks(c) {
					if w := x.rackMaxTot[rr]; w > cm {
						cm = w
					}
				}
				x.cloudMaxTot[c] = cm
			}
		}
	}
}

// CheckConsistent recomputes every aggregate from the matrix and
// returns the first discrepancy — the churn property tests' oracle.
func (x *TierIndex) CheckConsistent() error {
	fresh, err := NewTierIndex(x.t, x.l)
	if err != nil {
		return err
	}
	if !intsEqual(x.avail, fresh.avail) {
		return fmt.Errorf("affinity: tier index avail %v, rebuild %v", x.avail, fresh.avail)
	}
	if !intsEqual(x.rackRemain, fresh.rackRemain) {
		return fmt.Errorf("affinity: tier index rackRemain diverged from rebuild")
	}
	if !intsEqual(x.cloudRemain, fresh.cloudRemain) {
		return fmt.Errorf("affinity: tier index cloudRemain diverged from rebuild")
	}
	if !intsEqual(x.nodeTot, fresh.nodeTot) {
		return fmt.Errorf("affinity: tier index nodeTot diverged from rebuild")
	}
	if !intsEqual(x.rackMaxCol, fresh.rackMaxCol) {
		return fmt.Errorf("affinity: tier index rackMaxCol diverged from rebuild")
	}
	if !intsEqual(x.cloudMaxCol, fresh.cloudMaxCol) {
		return fmt.Errorf("affinity: tier index cloudMaxCol diverged from rebuild")
	}
	if !intsEqual(x.rackMaxTot, fresh.rackMaxTot) {
		return fmt.Errorf("affinity: tier index rackMaxTot diverged from rebuild")
	}
	if !intsEqual(x.cloudMaxTot, fresh.cloudMaxTot) {
		return fmt.Errorf("affinity: tier index cloudMaxTot diverged from rebuild")
	}
	if !intsEqual(x.cover, fresh.cover) {
		return fmt.Errorf("affinity: tier index cover tree diverged from rebuild")
	}
	return nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
