// The exchange neighbourhood of Algorithm 2's step 3 (the paper's
// Theorem 2 exchanges) and of the affinity-aware migration planner: one
// VM of a cluster moved into free capacity (a relocation), or one
// same-type VM traded between two clusters (a swap). Both searches walk it
// from the clusters' hosting nodes, so a relocation walk costs
// O(cells·n) for a cluster's non-zero cells and a swap walk
// O(hosts(a)·hosts(b)·m) per pair, where a loop over every node pair
// costs O(n²·m) however few nodes the clusters sit on. The callers keep
// their policies and their pricing: Algorithm 2 takes the first
// improvement, the planner the best.

package affinity

import (
	"slices"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// Relocations calls visit for every move of one of a's VMs into free
// capacity: from a hosting node of a, of a type a holds there, to
// another node with a free slot of that type, in ascending (from, type,
// to) order. ev must mirror a. visit may apply the move through MoveVM:
// the walk re-reads a, ev and free after every call, so a drained cell
// ends its targets, a target that filled up is skipped, and a node that
// gained VMs is walked in turn when it lies above from.
func Relocations(a Allocation, ev *DistanceEvaluator, free [][]int, visit func(from topology.NodeID, vt model.VMTypeID, to topology.NodeID)) {
	for from := ev.nextHost(-1); from >= 0; from = ev.nextHost(from) {
		for j := range a[from] {
			for to := 0; to < len(free) && a[from][j] > 0; to++ {
				if topology.NodeID(to) != from && free[to][j] > 0 {
					visit(from, model.VMTypeID(j), topology.NodeID(to))
				}
			}
		}
	}
}

// Swaps calls visit for every trade of one same-type VM between clusters
// a and b (a's VM on p moves to q, b's VM on q moves to p) over a's
// hosting nodes p × b's hosting nodes q ≠ p × the types a holds on p and
// b on q, in ascending (p, q, type) order. A trade is capacity neutral.
// The walk stops at the first visit that returns true and reports
// whether one did; only that call may apply its trade (MoveVM for each
// side), since the walk does not re-read the hosting nodes.
func Swaps(a, b Allocation, evA, evB *DistanceEvaluator, visit func(p, q topology.NodeID, vt model.VMTypeID) bool) bool {
	for _, p := range evA.hosts {
		for _, q := range evB.hosts {
			if p == q {
				continue
			}
			for j := range a[p] {
				if a[p][j] > 0 && b[q][j] > 0 && visit(p, q, model.VMTypeID(j)) {
					return true
				}
			}
		}
	}
	return false
}

// MoveVM moves one VM of type vt from node p to node q: in the
// allocation a, in its evaluator ev, and in the free matrix, which gains
// a slot on p and gives one up on q. The two moves of a swap leave free
// as it was.
func MoveVM(a Allocation, ev *DistanceEvaluator, free [][]int, vt model.VMTypeID, p, q topology.NodeID) {
	a.Remove(p, vt)
	a.Add(q, vt)
	ev.Move(p, q)
	free[p][vt]++
	free[q][vt]--
}

// nextHost returns the lowest hosting node above after, or -1 when none
// is.
func (e *DistanceEvaluator) nextHost(after topology.NodeID) topology.NodeID {
	if i, _ := slices.BinarySearch(e.hosts, after+1); i < len(e.hosts) {
		return e.hosts[i]
	}
	return -1
}
