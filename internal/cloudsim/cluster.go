// Live-cluster records. Each live cluster is one record holding
// everything the simulator keeps about it: its registry ID and request,
// its non-zero allocation cells instead of an n×m matrix, its served
// sample, its departure event and its resize state. Commissioning,
// resizing, pricing and releasing one cost O(cells) at any plant size.
// Only the rare paths whose planners take a dense matrix (evacuation
// planning and the migration pass) materialize one, and only for the
// clusters they touch.
//
// Records are reused: a departed or torn-down cluster's record goes to
// the simulator's free list after its last use, and the next commission
// takes it back with its cells' capacity and its bound events, so a
// steady-state replay allocates no bookkeeping per request.
package cloudsim

import (
	"affinitycluster/internal/affinity"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// cluster is one live virtual cluster: its non-zero cells, one entry
// per (node, type) in ascending node-then-type order — the order
// Allocation.Sparse produces — and its VM count, plus the simulator's
// bookkeeping for it.
type cluster struct {
	id    int                // registry ID, assigned in commission order
	req   model.TimedRequest // the request it serves
	cells []affinity.VMEntry
	vms   int

	// The served sample, rolled back out of the metrics if a fault tears
	// the cluster down.
	d, wait float64

	// departEv fires depart; bound at the record's first commission and
	// re-armed by every later one.
	departEv *eventsim.Event

	elasticState // resize lifecycle, Elastic mode only
}

// takeRecord returns a retired record from the free list, or a new one.
// A reused record keeps its cells' backing array and its bound events,
// none of them pending.
func (s *Simulator) takeRecord() *cluster {
	n := len(s.free)
	if n == 0 {
		return &cluster{}
	}
	c := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return c
}

// retire puts a record whose cluster is gone on the free list. The
// request is dropped so the idle record pins no request vector.
func (s *Simulator) retire(c *cluster) {
	c.req = model.TimedRequest{}
	c.cells = c.cells[:0]
	c.vms = 0
	s.free = append(s.free, c)
}

// add merges entries into the cluster and returns the VMs they add.
func (c *cluster) add(entries []affinity.VMEntry) int {
	added := 0
	for _, e := range entries {
		added += e.Count
	}
	c.cells = affinity.Canonical(append(c.cells, entries...))
	c.vms += added
	return added
}

// remove takes entries — a subset of the cluster's cells — back out and
// returns the VMs they remove.
func (c *cluster) remove(entries []affinity.VMEntry) int {
	removed := 0
	for _, e := range entries {
		removed += e.Count
		e.Count = -e.Count
		c.cells = append(c.cells, e)
	}
	c.cells = affinity.Canonical(c.cells)
	c.vms -= removed
	return removed
}

// dense materializes the cluster as an n×m matrix for the planners that
// take one.
func (c *cluster) dense(n, m int) affinity.Allocation {
	a := affinity.NewAllocation(n, m)
	for _, e := range c.cells {
		a[e.Node][e.Type] = e.Count
	}
	return a
}

// distance prices a live cluster's DC(C) and central node from its
// cells. The cells are ascending by node, so the hosting nodes come out
// ascending and the result is bit-identical to Allocation.Distance of
// the dense form.
func (s *Simulator) distance(c *cluster) (float64, topology.NodeID) {
	s.dcHosts = s.dcHosts[:0]
	for _, e := range c.cells {
		if s.dcW[e.Node] == 0 {
			s.dcHosts = append(s.dcHosts, e.Node)
		}
		s.dcW[e.Node] += e.Count
	}
	d, k := s.dcs.DistanceOf(s.topo, s.dcHosts, s.dcW)
	for _, h := range s.dcHosts {
		s.dcW[h] = 0
	}
	return d, k
}
