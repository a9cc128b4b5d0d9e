package vcluster

import (
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/topology"
)

func plant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 2, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestFromAllocation(t *testing.T) {
	tp := plant(t)
	// Node 0: 2 small + 1 medium; node 2 (rack 1): 1 small.
	a := affinity.Allocation{{2, 1}, {0, 0}, {1, 0}, {0, 0}}
	c, err := FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4", c.Size())
	}
	// Ordered by node then type: VMs 0,1 small on node 0; VM 2 medium on
	// node 0; VM 3 small on node 2.
	if c.vms[0].Node != 0 || c.vms[0].Type != 0 {
		t.Errorf("VM 0 = %+v", c.vms[0])
	}
	if c.vms[2].Node != 0 || c.vms[2].Type != 1 {
		t.Errorf("VM 2 = %+v", c.vms[2])
	}
	if c.vms[3].Node != 2 || c.vms[3].Type != 0 {
		t.Errorf("VM 3 = %+v", c.vms[3])
	}
	if c.Topology() != tp {
		t.Error("Topology() wrong")
	}
}

func TestFromAllocationErrors(t *testing.T) {
	tp := plant(t)
	if _, err := FromAllocation(tp, affinity.Allocation{{1}}); err == nil {
		t.Error("short allocation accepted")
	}
	if _, err := FromAllocation(tp, affinity.Allocation{{-1}, {0}, {0}, {0}}); err == nil {
		t.Error("negative allocation accepted")
	}
	if _, err := FromAllocation(tp, affinity.NewAllocation(4, 2)); err == nil {
		t.Error("empty allocation accepted")
	}
}

func TestDistanceAndLocality(t *testing.T) {
	tp := plant(t)
	a := affinity.Allocation{{2, 0}, {1, 0}, {1, 0}, {0, 0}}
	c, err := FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	d := tp.Distances()
	if got := c.Distance(0, 1); got != d.SameNode {
		t.Errorf("same-node distance = %v", got)
	}
	if got := c.Distance(0, 2); got != d.SameRack {
		t.Errorf("same-rack distance = %v", got)
	}
	if got := c.Distance(0, 3); got != d.CrossRack {
		t.Errorf("cross-rack distance = %v", got)
	}
	if !c.SameNode(0, 1) || c.SameNode(0, 2) {
		t.Error("SameNode wrong")
	}
	if !c.SameRack(0, 2) || c.SameRack(0, 3) {
		t.Error("SameRack wrong")
	}
}

func TestPairwiseDistanceMatchesAffinity(t *testing.T) {
	tp := plant(t)
	a := affinity.Allocation{{2, 0}, {1, 0}, {1, 0}, {0, 0}}
	c, err := FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.PairwiseDistance(), a.PairwiseAffinity(tp); got != want {
		t.Errorf("PairwiseDistance = %v, affinity metric = %v", got, want)
	}
}
