// Tier-index attachment. The placement fast path prices candidate racks
// from per-rack / per-cloud aggregates of the remaining matrix L; rebuilding
// those aggregates per request is O(n·m) and dominates placement cost at
// large plants. AttachTierIndex instead hangs a long-lived
// affinity.TierIndex off the inventory, aliased directly over L's rows
// (which are flat-backed and never reallocated), and every mutator updates
// it incrementally in O(affected tiers) under the same lock that guards L.
//
// The attached index and RemainingView share the inventory's live storage:
// they are only coherent between mutations. The intended usage is the
// single-writer discipline: exactly one goroutine at a time — the
// simulator loop, or the caller holding the placement service's writer
// lock (internal/service) — both mutates the inventory and reads the
// view/index, so its lock-free reads can never interleave with a
// mutation. Any other goroutine must use the cloning
// snapshots (Remaining, Available), whose RLocks order them against the
// writer. The service's race-mode hammer test pins this discipline.
package inventory

import (
	"fmt"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/topology"
)

// AttachTierIndex builds a persistent tier-aggregate index over the live
// remaining matrix L and registers it for incremental maintenance: every
// subsequent successful mutation (Allocate, Release, Move,
// FailNode, RestoreNode, and the sparse List forms) updates the index.
// Attaching replaces any previously attached index.
//
//lint:shared the attached index is the shared view by contract; the inventory keeps it current under its own lock
func (inv *Inventory) AttachTierIndex(t *topology.Topology) (*affinity.TierIndex, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if t.Nodes() != inv.nodes {
		return nil, fmt.Errorf("inventory: topology has %d nodes, inventory has %d", t.Nodes(), inv.nodes)
	}
	idx, err := affinity.NewTierIndex(t, inv.remain)
	if err != nil {
		return nil, err
	}
	inv.tidx = idx
	return idx, nil
}

// TierIndex returns the attached index, or nil if AttachTierIndex has not
// been called.
//
//lint:shared single-writer view of the attached index (see RemainingView's contract)
func (inv *Inventory) TierIndex() *affinity.TierIndex {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return inv.tidx
}

// RemainingView returns the live remaining matrix L without copying.
// The rows alias the inventory's internal storage: they change under every
// mutation and must never be written by the caller. The view is only safe
// on the inventory's single writer goroutine (the one performing all
// mutations — see the package comment); everywhere else use Remaining for
// a stable snapshot. The view exists for the placement hot path, where the
// per-request clone of an n×m matrix is the dominant cost.
//
//lint:shared zero-copy single-writer view; the whole point of this accessor
func (inv *Inventory) RemainingView() [][]int {
	inv.mu.RLock()
	defer inv.mu.RUnlock()
	return inv.remain
}

// AllocateList atomically commits a sparse allocation: for each entry,
// L[Node][Type] -= Count (so C = M − L grows by Count). Entries may repeat
// cells; the combined total per cell must fit the remaining capacity or
// the whole call fails with ErrInsufficient and the inventory is
// unchanged. It touches only the listed cells, so a placement commit is
// O(entries) rather than O(n·m).
func (inv *Inventory) AllocateList(entries []affinity.VMEntry) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if err := inv.checkEntries(entries, true); err != nil {
		return err
	}
	for _, e := range entries {
		inv.shift(int(e.Node), int(e.Type), -e.Count)
	}
	return nil
}

// ReleaseList atomically returns a sparse allocation: L += entry counts.
// It fails, changing nothing, if any cell would release more than the
// M − L VMs its node holds.
func (inv *Inventory) ReleaseList(entries []affinity.VMEntry) error {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	if err := inv.checkEntries(entries, false); err != nil {
		return err
	}
	for _, e := range entries {
		inv.shift(int(e.Node), int(e.Type), e.Count)
	}
	return nil
}

// checkEntries validates a sparse entry list against the current state
// without mutating it. Cells may repeat across entries, so the bound is
// checked against the running per-cell total: allocating requires the
// total ≤ L, releasing requires the total ≤ M − L, the VMs the node
// holds. The running total is staged in place in L and rolled back, so
// the success path allocates nothing.
func (inv *Inventory) checkEntries(entries []affinity.VMEntry, allocating bool) error {
	sign := 1
	if allocating {
		sign = -1
	}
	var err error
	k := 0
	for ; k < len(entries); k++ {
		e := entries[k]
		i, j := int(e.Node), int(e.Type)
		if i < 0 || i >= inv.nodes || j < 0 || j >= inv.types {
			err = fmt.Errorf("inventory: entry (%d, %d) out of range %dx%d", i, j, inv.nodes, inv.types)
			break
		}
		if e.Count < 0 {
			err = fmt.Errorf("inventory: negative count %d at node %d type %d", e.Count, i, j)
			break
		}
		if allocating {
			if e.Count > inv.remain[i][j] {
				err = fmt.Errorf("%w: node %d type %d has %d remaining, %d requested",
					ErrInsufficient, i, j, inv.remain[i][j], e.Count)
				break
			}
		} else if held := inv.max[i][j] - inv.remain[i][j]; e.Count > held {
			err = fmt.Errorf("inventory: release of %d VMs of type %d on node %d exceeds %d allocated",
				e.Count, j, i, held)
			break
		}
		inv.remain[i][j] += sign * e.Count
	}
	for k--; k >= 0; k-- {
		e := entries[k]
		inv.remain[e.Node][e.Type] -= sign * e.Count
	}
	return err
}

// shift moves one cell of L by delta and folds it into A and the
// attached index, if any: the one commit step of every mutator. Callers
// hold inv.mu and have checked the cell's bounds.
func (inv *Inventory) shift(i, j, delta int) {
	inv.remain[i][j] += delta
	inv.avail[j] += delta
	if inv.tidx != nil {
		inv.tidx.Apply(topology.NodeID(i), j, delta)
	}
}
