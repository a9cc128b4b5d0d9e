// Package inventory tracks the resource bookkeeping of Section II of the
// paper: the capacity matrix M (maximum VMs per node per type), the
// allocation matrix C (currently placed VMs), the remaining matrix
// L = M − C, and the availability vector A with A_j = Σ_i L_ij.
//
// NewFromMatrix builds an Inventory from M; afterwards M changes only
// through FailNode and RestoreNode. An Inventory is safe for concurrent
// use; the placement algorithms take snapshots (Remaining, Available) and
// commit allocations atomically with Allocate.
package inventory

import (
	"errors"
	"fmt"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// ErrInsufficient is returned by Allocate when the requested VMs exceed the
// remaining capacity of some node. The caller's view was stale or the
// placement was computed against a different snapshot.
var ErrInsufficient = errors.New("inventory: insufficient remaining capacity")

// Inventory is the mutable resource state of one cloud.
type Inventory struct {
	mu     sync.RWMutex
	nodes  int
	types  int
	max    [][]int // M
	alloc  [][]int // C (aggregate over all tenants)
	remain [][]int // L = M − C, kept incrementally
	avail  []int   // A_j = Σ_i L_ij, kept incrementally
	capSum []int   // Σ_i M_ij, kept incrementally for CanEverSatisfy
	// failed maps a failed node to its saved pre-failure capacity row;
	// FailNode populates it, RestoreNode consumes it.
	failed map[int][]int
	// tidx, when non-nil, is the attached tier-aggregate index over the
	// live remain matrix (see AttachTierIndex); every mutator keeps it in
	// sync under the same lock. tixDeltas is its reusable row-delta
	// scratch for FailNode/RestoreNode.
	tidx      *affinity.TierIndex
	tixDeltas []int
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
		alloc:  newMatrix(n, m),
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
// algorithms plan against this snapshot and then commit with Allocate.
func (inv *Inventory) Remaining() [][]int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return cloneMatrix(inv.remain)
}

// AllocatedMatrix returns a copy of C.
func (inv *Inventory) AllocatedMatrix() [][]int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return cloneMatrix(inv.alloc)
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

// Allocate atomically commits an allocation matrix: C += alloc, L -= alloc.
// The matrix must be n×m with non-negative entries. If any entry exceeds
// the remaining capacity the whole call fails with ErrInsufficient and the
// inventory is unchanged.
func (inv *Inventory) Allocate(alloc [][]int) error {
	if err := inv.checkShape(alloc); err != nil {
		return err
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	for i, row := range alloc {
		for j, k := range row {
			if k < 0 {
				return fmt.Errorf("inventory: negative allocation at [%d][%d]", i, j)
			}
			if k > inv.remain[i][j] {
				return fmt.Errorf("%w: node %d type %d has %d remaining, %d requested",
					ErrInsufficient, i, j, inv.remain[i][j], k)
			}
		}
	}
	for i, row := range alloc {
		for j, k := range row {
			inv.alloc[i][j] += k
			inv.remain[i][j] -= k
			inv.avail[j] -= k
			inv.tixApply(topology.NodeID(i), model.VMTypeID(j), -k)
		}
	}
	return nil
}

// Release atomically returns an allocation: C -= alloc, L += alloc. It
// fails if the release exceeds what is currently allocated anywhere, in
// which case the inventory is unchanged.
func (inv *Inventory) Release(alloc [][]int) error {
	if err := inv.checkShape(alloc); err != nil {
		return err
	}
	inv.mu.Lock()
	defer inv.mu.Unlock()
	for i, row := range alloc {
		for j, k := range row {
			if k < 0 {
				return fmt.Errorf("inventory: negative release at [%d][%d]", i, j)
			}
			if k > inv.alloc[i][j] {
				return fmt.Errorf("inventory: release of %d VMs of type %d on node %d exceeds %d allocated",
					k, j, i, inv.alloc[i][j])
			}
		}
	}
	for i, row := range alloc {
		for j, k := range row {
			inv.alloc[i][j] -= k
			inv.remain[i][j] += k
			inv.avail[j] += k
			inv.tixApply(topology.NodeID(i), model.VMTypeID(j), k)
		}
	}
	return nil
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
	if inv.alloc[f][j] == 0 {
		return fmt.Errorf("inventory: no VM of type %d allocated on node %d", j, f)
	}
	if inv.remain[tn][j] == 0 {
		return fmt.Errorf("%w: node %d has no remaining capacity for type %d", ErrInsufficient, tn, j)
	}
	inv.alloc[f][j]--
	inv.remain[f][j]++
	inv.alloc[tn][j]++
	inv.remain[tn][j]--
	// avail is unchanged: one slot freed, one consumed.
	inv.tixApply(from, vt, 1)
	inv.tixApply(to, vt, -1)
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
	lost := append([]int(nil), inv.alloc[i]...)
	for j := 0; j < inv.types; j++ {
		if inv.tidx != nil {
			inv.tixDeltas[j] = -inv.remain[i][j]
		}
		inv.avail[j] -= inv.remain[i][j]
		inv.capSum[j] -= inv.max[i][j]
		inv.max[i][j] = 0
		inv.alloc[i][j] = 0
		inv.remain[i][j] = 0
	}
	if inv.failed == nil {
		inv.failed = make(map[int][]int)
	}
	inv.failed[i] = saved
	inv.tixApplyRow(node, inv.tixDeltas)
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
	for j := 0; j < inv.types; j++ {
		inv.max[i][j] = saved[j]
		inv.remain[i][j] = saved[j]
		inv.avail[j] += saved[j]
		inv.capSum[j] += saved[j]
		if inv.tidx != nil {
			inv.tixDeltas[j] = saved[j]
		}
	}
	delete(inv.failed, i)
	inv.tixApplyRow(node, inv.tixDeltas)
	return nil
}

// CheckInvariants verifies the bookkeeping identities of Section II:
// L = M − C, A_j = Σ_i L_ij, and 0 ≤ C ≤ M everywhere, plus the kept
// capacity totals Σ_i M_ij. It returns the first violation found. The
// test suite and the simulators call this after every mutation batch.
func (inv *Inventory) CheckInvariants() error {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	sums := make([]int, inv.types)
	caps := make([]int, inv.types)
	for i := 0; i < inv.nodes; i++ {
		for j := 0; j < inv.types; j++ {
			caps[j] += inv.max[i][j]
			if inv.alloc[i][j] < 0 || inv.alloc[i][j] > inv.max[i][j] {
				return fmt.Errorf("inventory: C[%d][%d] = %d outside [0, M=%d]", i, j, inv.alloc[i][j], inv.max[i][j])
			}
			if inv.remain[i][j] != inv.max[i][j]-inv.alloc[i][j] {
				return fmt.Errorf("inventory: L[%d][%d] = %d, want M−C = %d", i, j, inv.remain[i][j], inv.max[i][j]-inv.alloc[i][j])
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
