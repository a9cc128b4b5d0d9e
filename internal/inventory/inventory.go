// Package inventory tracks the resource bookkeeping of Section II of the
// paper: the capacity matrix M (maximum VMs per node per type), the
// remaining matrix L, and the availability vector A with
// A_j = Σ_i L_ij. The allocation matrix C (currently placed VMs) is
// M − L by definition, so only M and L are stored.
//
// NewFromMatrix builds an Inventory from M; afterwards M changes only
// through FailNode and RestoreNode. An Inventory is safe for concurrent
// use; the placement algorithms take snapshots (Remaining, Available) and
// commit allocations atomically with AllocateList.
package inventory

import (
	"errors"
	"fmt"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// ErrInsufficient is returned by AllocateList when the requested VMs exceed
// the remaining capacity of some node. The caller's view was stale or the
// placement was computed against a different snapshot.
var ErrInsufficient = errors.New("inventory: insufficient remaining capacity")

// Inventory is the mutable resource state of one cloud.
type Inventory struct {
	mu     sync.RWMutex
	nodes  int
	types  int
	max    [][]int // M
	remain [][]int // L; the allocation C (over all tenants) is M − L
	avail  []int   // A_j = Σ_i L_ij, kept incrementally
	capSum []int   // Σ_i M_ij, kept incrementally for CanEverSatisfy
	// failed maps a failed node to its saved pre-failure capacity row;
	// FailNode populates it, RestoreNode consumes it.
	failed map[int][]int
	// tidx, when non-nil, is the attached tier-aggregate index over the
	// live remain matrix (see AttachTierIndex); every mutator keeps it in
	// sync under the same lock.
	tidx *affinity.TierIndex
}

// NewFromMatrix creates an inventory whose capacity matrix M is a copy of
// max. Every entry must be non-negative, and all of them must sum within
// int (model.AddCapacity).
func NewFromMatrix(max [][]int) (*Inventory, error) {
	if len(max) == 0 || len(max[0]) == 0 {
		return nil, errors.New("inventory: empty capacity matrix")
	}
	n, m := len(max), len(max[0])
	inv := &Inventory{
		nodes:  n,
		types:  m,
		max:    newMatrix(n, m),
		remain: newMatrix(n, m),
		avail:  make([]int, m),
		capSum: make([]int, m),
	}
	total := 0
	for i, row := range max {
		if len(row) != inv.types {
			return nil, fmt.Errorf("inventory: ragged capacity matrix at row %d", i)
		}
		for j, k := range row {
			if k < 0 {
				return nil, fmt.Errorf("inventory: negative capacity M[%d][%d] = %d", i, j, k)
			}
			var err error
			if total, err = model.AddCapacity(total, k); err != nil {
				return nil, fmt.Errorf("inventory: capacity M[%d][%d] = %d: %w", i, j, k, err)
			}
			inv.max[i][j] = k
			inv.remain[i][j] = k
			inv.avail[j] += k
			inv.capSum[j] += k
		}
	}
	return inv, nil
}

func newMatrix(n, m int) [][]int {
	rows := make([][]int, n)
	flat := make([]int, n*m)
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m]
	}
	return rows
}

func cloneMatrix(src [][]int) [][]int {
	out := newMatrix(len(src), len(src[0]))
	for i := range src {
		copy(out[i], src[i])
	}
	return out
}

// Nodes returns the node dimension n.
func (inv *Inventory) Nodes() int { return inv.nodes }

// Types returns the VM type dimension m.
func (inv *Inventory) Types() int { return inv.types }

// Remaining returns a copy of the full remaining matrix L. Placement
// algorithms plan against this snapshot and then commit with AllocateList.
func (inv *Inventory) Remaining() [][]int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return cloneMatrix(inv.remain)
}

// AllocatedMatrix returns the allocation matrix C = M − L as a fresh
// matrix.
func (inv *Inventory) AllocatedMatrix() [][]int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	c := newMatrix(inv.nodes, inv.types)
	for i, row := range c {
		for j := range row {
			row[j] = inv.max[i][j] - inv.remain[i][j]
		}
	}
	return c
}

// Available returns a copy of the availability vector A, A_j = Σ_i L_ij.
func (inv *Inventory) Available() []int {
	return inv.AppendAvailable(make([]int, 0, inv.types))
}

// AppendAvailable appends the availability vector A to dst and returns
// the extended slice: Available for callers that reuse one buffer.
func (inv *Inventory) AppendAvailable(dst []int) []int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	dst = append(dst, inv.avail...)
	return dst
}

// CapacityTotals returns the per-type capacity totals Σ_i M_ij, which
// count no failed node.
func (inv *Inventory) CapacityTotals() []int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return append([]int(nil), inv.capSum...)
}

// CanSatisfy reports whether the request could be admitted right now, i.e.
// R_j ≤ A_j for every type j (the paper's waiting condition).
func (inv *Inventory) CanSatisfy(r model.Request) bool {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	if len(r) != inv.types {
		return false
	}
	for j, k := range r {
		if k > inv.avail[j] {
			return false
		}
	}
	return true
}

// CanEverSatisfy reports whether the request fits the total plant capacity
// R_j ≤ Σ_i M_ij; if not, the paper's model rejects it outright rather than
// queueing it. O(m): the column totals are kept by every capacity mutator.
func (inv *Inventory) CanEverSatisfy(r model.Request) bool {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	if len(r) != inv.types {
		return false
	}
	for j, k := range r {
		if k > inv.capSum[j] {
			return false
		}
	}
	return true
}

// Allocate commits an n×m allocation matrix: AllocateList of its
// non-zero cells, so a negative or over-capacity cell fails the whole
// call and leaves the inventory unchanged. Dense callers (the
// benchmark's trace replay) use it; every other caller commits sparse
// cells.
func (inv *Inventory) Allocate(alloc [][]int) error {
	if err := inv.checkShape(alloc); err != nil {
		return err
	}
	return inv.AllocateList(affinity.Allocation(alloc).Sparse())
}

// Release returns an n×m allocation matrix: ReleaseList of its non-zero
// cells, so a negative cell or a release beyond what a node holds fails
// the whole call and leaves the inventory unchanged.
func (inv *Inventory) Release(alloc [][]int) error {
	if err := inv.checkShape(alloc); err != nil {
		return err
	}
	return inv.ReleaseList(affinity.Allocation(alloc).Sparse())
}

func (inv *Inventory) checkShape(alloc [][]int) error {
	if len(alloc) != inv.nodes {
		return fmt.Errorf("inventory: allocation has %d rows, want %d", len(alloc), inv.nodes)
	}
	for i, row := range alloc {
		if len(row) != inv.types {
			return fmt.Errorf("inventory: allocation row %d has %d columns, want %d", i, len(row), inv.types)
		}
	}
	return nil
}

// Move atomically relocates one allocated VM of type vt from one node to
// another: C[from][vt]--, C[to][vt]++ (and L adjusts accordingly). It is
// the bookkeeping step of a live migration. The call fails, changing
// nothing, if no such VM is allocated on from or to has no remaining
// capacity.
func (inv *Inventory) Move(from, to topology.NodeID, vt model.VMTypeID) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	f, tn, j := int(from), int(to), int(vt)
	if f < 0 || f >= inv.nodes || tn < 0 || tn >= inv.nodes || j < 0 || j >= inv.types {
		return fmt.Errorf("inventory: Move(%d, %d, %d) out of range", f, tn, j)
	}
	if f == tn {
		return fmt.Errorf("inventory: Move to the same node %d", f)
	}
	if inv.max[f][j]-inv.remain[f][j] == 0 {
		return fmt.Errorf("inventory: no VM of type %d allocated on node %d", j, f)
	}
	if inv.remain[tn][j] == 0 {
		return fmt.Errorf("%w: node %d has no remaining capacity for type %d", ErrInsufficient, tn, j)
	}
	// A is unchanged: one slot freed, one consumed.
	inv.shift(f, j, 1)
	inv.shift(tn, j, -1)
	return nil
}

// FailNode marks a node as failed: its capacity row drops to zero and
// every VM allocated there is lost — dropped from C, not released, since
// a crashed host returns nothing. The pre-failure capacity row is saved
// for RestoreNode. It returns the per-type counts of lost VMs so callers
// can repair the owning clusters' bookkeeping. Failing an already-failed
// node is an error.
func (inv *Inventory) FailNode(node topology.NodeID) ([]int, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	i := int(node)
	if i < 0 || i >= inv.nodes {
		return nil, fmt.Errorf("inventory: FailNode(%d) out of range %d nodes", i, inv.nodes)
	}
	if _, down := inv.failed[i]; down {
		return nil, fmt.Errorf("inventory: node %d is already failed", i)
	}
	saved := append([]int(nil), inv.max[i]...)
	lost := make([]int, inv.types)
	for j, k := range saved {
		free := inv.remain[i][j]
		lost[j] = k - free
		inv.capSum[j] -= k
		inv.max[i][j] = 0
		inv.shift(i, j, -free)
	}
	if inv.failed == nil {
		inv.failed = make(map[int][]int)
	}
	inv.failed[i] = saved
	return lost, nil
}

// RestoreNode reinstates the capacity saved by FailNode: the node comes
// back empty at its pre-failure capacity. It is an error if the node is
// not currently failed.
func (inv *Inventory) RestoreNode(node topology.NodeID) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	i := int(node)
	if i < 0 || i >= inv.nodes {
		return fmt.Errorf("inventory: RestoreNode(%d) out of range %d nodes", i, inv.nodes)
	}
	saved, down := inv.failed[i]
	if !down {
		return fmt.Errorf("inventory: node %d is not failed", i)
	}
	for j, k := range saved {
		inv.max[i][j] = k
		inv.capSum[j] += k
		inv.shift(i, j, k)
	}
	delete(inv.failed, i)
	return nil
}

// CheckInvariants verifies the bookkeeping identities of Section II:
// 0 ≤ L ≤ M everywhere (so the allocation C = M − L lies in [0, M]),
// A_j = Σ_i L_ij, and the kept capacity totals Σ_i M_ij. It returns the
// first violation found. The test suite and the simulators call this
// after every mutation batch.
func (inv *Inventory) CheckInvariants() error {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	sums := make([]int, inv.types)
	caps := make([]int, inv.types)
	for i := 0; i < inv.nodes; i++ {
		for j := 0; j < inv.types; j++ {
			caps[j] += inv.max[i][j]
			if l := inv.remain[i][j]; l < 0 || l > inv.max[i][j] {
				return fmt.Errorf("inventory: L[%d][%d] = %d outside [0, M=%d]", i, j, l, inv.max[i][j])
			}
			sums[j] += inv.remain[i][j]
		}
	}
	for j, s := range sums {
		if inv.avail[j] != s {
			return fmt.Errorf("inventory: A[%d] = %d, want Σ_i L_ij = %d", j, inv.avail[j], s)
		}
		if inv.capSum[j] != caps[j] {
			return fmt.Errorf("inventory: capacity total %d for type %d, want Σ_i M_ij = %d", inv.capSum[j], j, caps[j])
		}
	}
	return nil
}
