// Package affinity implements the distance metric at the heart of the
// paper: the distance of a virtual cluster DC(C) (Definition 1), the
// central-node computation, and the pairwise cluster-affinity metric used
// by the experimental evaluation (Section V.B).
//
// An Allocation is the paper's matrix C: Allocation[i][j] VMs of type V_j
// are hosted on node N_i. The distance of the cluster is
//
//	DC(C) = min_k Σ_i (Σ_j C_ij) · D_ik
//
// where N_k ranges over candidate central nodes and D is the node distance
// matrix of the topology.
package affinity

import (
	"fmt"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// Allocation is the paper's allocation matrix C for a single virtual
// cluster: Allocation[i][j] instances of type j on node i.
type Allocation [][]int

// NewAllocation returns an all-zero n×m allocation.
func NewAllocation(n, m int) Allocation {
	rows := make(Allocation, n)
	flat := make([]int, n*m)
	for i := range rows {
		rows[i] = flat[i*m : (i+1)*m]
	}
	return rows
}

// Clone returns a deep copy.
func (a Allocation) Clone() Allocation {
	out := NewAllocation(len(a), len(a[0]))
	for i := range a {
		copy(out[i], a[i])
	}
	return out
}

// VMsOnNode returns Σ_j C_ij, the number of VMs the cluster places on node i.
func (a Allocation) VMsOnNode(i topology.NodeID) int {
	return model.Sum(a[i])
}

// TotalVMs returns the total VM count of the cluster.
func (a Allocation) TotalVMs() int {
	n := 0
	for i := range a {
		n += model.Sum(a[i])
	}
	return n
}

// Vector returns the per-type totals Σ_i C_ij, which must equal the request
// vector R for a valid allocation.
func (a Allocation) Vector() model.Request {
	if len(a) == 0 {
		return nil
	}
	out := make(model.Request, len(a[0]))
	for i := range a {
		for j, k := range a[i] {
			out[j] += k
		}
	}
	return out
}

// HostingNodes returns the IDs of nodes with at least one VM, in ID order.
func (a Allocation) HostingNodes() []topology.NodeID {
	var out []topology.NodeID
	for i := range a {
		if model.Sum(a[i]) > 0 {
			out = append(out, topology.NodeID(i))
		}
	}
	return out
}

// Satisfies reports whether the allocation delivers exactly the request r.
func (a Allocation) Satisfies(r model.Request) bool {
	v := a.Vector()
	if len(v) != len(r) {
		return false
	}
	for j := range r {
		if v[j] != r[j] {
			return false
		}
	}
	return true
}

// Fits reports whether the allocation respects a remaining-capacity matrix
// L, i.e. C_ij ≤ L_ij everywhere and entries are non-negative.
func (a Allocation) Fits(l [][]int) bool {
	if len(a) != len(l) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(l[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] < 0 || a[i][j] > l[i][j] {
				return false
			}
		}
	}
	return true
}

// Validate returns a descriptive error when the allocation does not satisfy
// the request or exceeds capacity.
func (a Allocation) Validate(r model.Request, l [][]int) error {
	if !a.Satisfies(r) {
		return fmt.Errorf("affinity: allocation delivers %v, request is %v", a.Vector(), r)
	}
	if !a.Fits(l) {
		return fmt.Errorf("affinity: allocation exceeds remaining capacity")
	}
	return nil
}

// DistanceFrom returns Σ_i (Σ_j C_ij) · D_ik for a fixed central node k:
// the inner sum of Definition 1 before minimization.
func (a Allocation) DistanceFrom(t *topology.Topology, k topology.NodeID) float64 {
	var sum float64
	for i := range a {
		if v := model.Sum(a[i]); v > 0 {
			sum += float64(v) * t.Distance(k, topology.NodeID(i))
		}
	}
	return sum
}

// Distance computes DC(C) per Definition 1: the minimum over all candidate
// central nodes of DistanceFrom, together with the minimizing central node.
// Ties break toward the lowest node ID, making the result deterministic.
//
// The minimum over all n nodes is always attained at a hosting node: moving
// the candidate center onto any hosting node in the same rack can only
// remove that node's own contribution (Theorem 1's exchange argument), so
// the scan is restricted to hosting nodes. An empty allocation has distance
// 0 and central node -1.
//
// The matrix is reduced to per-node totals once, then evaluated through
// DistanceOf — O(n·m + hosts) instead of O(hosts·n·m). Call sites that
// re-evaluate after single-VM mutations should use a DistanceEvaluator
// instead, which prices each move in O(hosts).
func (a Allocation) Distance(t *topology.Topology) (float64, topology.NodeID) {
	var hosts []topology.NodeID
	w := make([]int, len(a))
	for i := range a {
		if v := model.Sum(a[i]); v > 0 {
			w[i] = v
			hosts = append(hosts, topology.NodeID(i))
		}
	}
	return DistanceOf(t, hosts, w)
}

// PairwiseAffinity computes the cluster-affinity metric of the paper's
// experimental section: the sum of distances over all unordered VM pairs of
// the cluster. Two VMs on the same node contribute the SameNode tier (0),
// same rack contributes SameRack, and so on. This is the "distance of
// virtual clusters" axis of Figs. 7 and 8.
func (a Allocation) PairwiseAffinity(t *topology.Topology) float64 {
	hosts := a.HostingNodes()
	var sum float64
	for x := 0; x < len(hosts); x++ {
		vx := a.VMsOnNode(hosts[x])
		// Pairs within the same node.
		sum += float64(vx*(vx-1)/2) * t.Distances().SameNode
		for y := x + 1; y < len(hosts); y++ {
			vy := a.VMsOnNode(hosts[y])
			sum += float64(vx*vy) * t.Distance(hosts[x], hosts[y])
		}
	}
	return sum
}

// Add places one VM of type vt on node i.
func (a Allocation) Add(i topology.NodeID, vt model.VMTypeID) {
	a[i][vt]++
}

// Remove deletes one VM of type vt from node i. It panics if none is
// placed there, which always indicates a logic error in a transfer routine.
func (a Allocation) Remove(i topology.NodeID, vt model.VMTypeID) {
	if a[i][vt] <= 0 {
		panic(fmt.Sprintf("affinity: Remove(%d, %d) on empty cell", i, vt))
	}
	a[i][vt]--
}

// Sparse returns the allocation's non-zero cells as VMEntry values in
// row-major (node, then type) order — the canonical sparse form consumed
// by Inventory.AllocateList/ReleaseList. The entries are freshly
// allocated and do not alias the matrix.
func (a Allocation) Sparse() []VMEntry {
	var out []VMEntry
	for i, row := range a {
		for j, k := range row {
			if k != 0 {
				out = append(out, VMEntry{Node: topology.NodeID(i), Type: model.VMTypeID(j), Count: k})
			}
		}
	}
	return out
}

// MoveDelta returns the change in DistanceFrom(t, k) caused by moving one
// VM from node p to node q while keeping the central node k fixed:
// D_qk − D_pk. This is the quantity of Theorem 1 — negative when q is
// closer to the center than p.
func MoveDelta(t *topology.Topology, k, p, q topology.NodeID) float64 {
	return t.Distance(q, k) - t.Distance(p, k)
}

// String renders a compact description like "n0:[2 2 0] n1:[0 2 0]".
func (a Allocation) String() string {
	s := ""
	for i := range a {
		if model.Sum(a[i]) == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("n%d:%v", i, a[i])
	}
	if s == "" {
		return "(empty)"
	}
	return s
}
