// Sparse allocation results. A dense Allocation is n×m regardless of how
// many nodes actually host VMs, which makes every placement at a
// 1M-node plant a multi-megabyte copy. The churn-steady-state path
// (place, commit, release) instead carries only the non-zero cells.
package affinity

import (
	"cmp"
	"slices"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// VMEntry is one non-zero allocation cell: Count VMs of type Type on
// node Node.
type VMEntry struct {
	Node  topology.NodeID
	Type  model.VMTypeID
	Count int
}

// SparseAlloc is the sparse form of the paper's allocation matrix C for
// one virtual cluster. Entries hold the non-zero cells; the order is
// deterministic for a given placement but otherwise unspecified. A
// SparseAlloc is reusable: Reset and refill it instead of reallocating,
// so steady-state placement stays allocation-free once the Entries
// backing array has grown to its working size.
type SparseAlloc struct {
	NumNodes int
	NumTypes int
	Entries  []VMEntry
}

// Reset clears the entries (retaining capacity) and records the shape.
func (s *SparseAlloc) Reset(nodes, types int) {
	s.NumNodes = nodes
	s.NumTypes = types
	s.Entries = s.Entries[:0]
}

// Add appends one non-zero cell.
func (s *SparseAlloc) Add(node topology.NodeID, vt model.VMTypeID, count int) {
	s.Entries = append(s.Entries, VMEntry{Node: node, Type: vt, Count: count})
}

// ToDense materializes the equivalent dense Allocation.
func (s *SparseAlloc) ToDense() Allocation {
	a := NewAllocation(s.NumNodes, s.NumTypes)
	for _, e := range s.Entries {
		a[e.Node][e.Type] += e.Count
	}
	return a
}

// Canonical sorts cells by node then type, sums repeated cells, and
// drops cells whose sum is zero, reusing cells' backing array.
func Canonical(cells []VMEntry) []VMEntry {
	slices.SortFunc(cells, func(a, b VMEntry) int {
		if a.Node != b.Node {
			return cmp.Compare(a.Node, b.Node)
		}
		return cmp.Compare(a.Type, b.Type)
	})
	out := cells[:0]
	for _, e := range cells {
		if n := len(out); n > 0 && out[n-1].Node == e.Node && out[n-1].Type == e.Type {
			out[n-1].Count += e.Count
			if out[n-1].Count == 0 {
				out = out[:n-1]
			}
			continue
		}
		if e.Count != 0 {
			out = append(out, e)
		}
	}
	return out
}
