// Sparse allocation results. A dense Allocation is n×m regardless of how
// many nodes actually host VMs, which makes every placement at a
// 1M-node plant a multi-megabyte copy. The churn-steady-state path
// (place, commit, release) instead carries only the non-zero cells.
package affinity

import (
	"fmt"

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

// TotalVMs sums the entry counts.
func (s *SparseAlloc) TotalVMs() int {
	n := 0
	for _, e := range s.Entries {
		n += e.Count
	}
	return n
}

// ToDense materializes the equivalent dense Allocation.
func (s *SparseAlloc) ToDense() Allocation {
	a := NewAllocation(s.NumNodes, s.NumTypes)
	for _, e := range s.Entries {
		a[e.Node][e.Type] += e.Count
	}
	return a
}

// Validate checks shape bounds and entry positivity.
func (s *SparseAlloc) Validate() error {
	for _, e := range s.Entries {
		if int(e.Node) < 0 || int(e.Node) >= s.NumNodes {
			return fmt.Errorf("affinity: sparse entry node %d outside [0,%d)", e.Node, s.NumNodes)
		}
		if int(e.Type) < 0 || int(e.Type) >= s.NumTypes {
			return fmt.Errorf("affinity: sparse entry type %d outside [0,%d)", e.Type, s.NumTypes)
		}
		if e.Count <= 0 {
			return fmt.Errorf("affinity: sparse entry count %d at node %d type %d must be positive", e.Count, e.Node, e.Type)
		}
	}
	return nil
}
