// Package vcluster materializes an allocation matrix into a concrete
// virtual cluster: an ordered list of VMs, each pinned to the physical
// node hosting it. The MapReduce simulator schedules tasks onto these VMs
// and the DFS stores block replicas on them.
package vcluster

import (
	"fmt"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// VMID indexes a VM within a cluster.
type VMID int

// VM is one provisioned virtual machine.
type VM struct {
	ID   VMID
	Type model.VMTypeID
	Node topology.NodeID // hosting physical node
}

// Cluster is a materialized virtual cluster.
type Cluster struct {
	topo *topology.Topology
	vms  []VM
}

// FromAllocation expands an allocation matrix into VM instances, ordered
// by node then type for determinism.
func FromAllocation(t *topology.Topology, a affinity.Allocation) (*Cluster, error) {
	if len(a) != t.Nodes() {
		return nil, fmt.Errorf("vcluster: allocation has %d rows, topology has %d nodes", len(a), t.Nodes())
	}
	c := &Cluster{topo: t}
	for i := range a {
		for j, k := range a[i] {
			if k < 0 {
				return nil, fmt.Errorf("vcluster: negative allocation at [%d][%d]", i, j)
			}
			for v := 0; v < k; v++ {
				c.vms = append(c.vms, VM{
					ID:   VMID(len(c.vms)),
					Type: model.VMTypeID(j),
					Node: topology.NodeID(i),
				})
			}
		}
	}
	if len(c.vms) == 0 {
		return nil, fmt.Errorf("vcluster: empty allocation")
	}
	return c, nil
}

// Size returns the number of VMs.
func (c *Cluster) Size() int { return len(c.vms) }

// NodeOf returns the physical node hosting a VM.
func (c *Cluster) NodeOf(id VMID) topology.NodeID { return c.vms[id].Node }

// Topology returns the underlying physical plant.
//
//lint:shared the topology is immutable after construction and shared by design
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// Distance returns the physical distance between the hosts of two VMs
// (0 when co-located, per the paper's model).
func (c *Cluster) Distance(a, b VMID) float64 {
	return c.topo.Distance(c.vms[a].Node, c.vms[b].Node)
}

// SameNode reports whether two VMs share a physical node.
func (c *Cluster) SameNode(a, b VMID) bool { return c.vms[a].Node == c.vms[b].Node }

// SameRack reports whether two VMs' hosts share a rack.
func (c *Cluster) SameRack(a, b VMID) bool {
	return c.topo.SameRack(c.vms[a].Node, c.vms[b].Node)
}

// PairwiseDistance is the cluster-affinity metric of the paper's
// experiments: the sum of host distances over all unordered VM pairs.
func (c *Cluster) PairwiseDistance() float64 {
	var sum float64
	for a := 0; a < len(c.vms); a++ {
		for b := a + 1; b < len(c.vms); b++ {
			sum += c.Distance(VMID(a), VMID(b))
		}
	}
	return sum
}
