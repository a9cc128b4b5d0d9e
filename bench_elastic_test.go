// Elastic-resize benchmarks: the cost of growing a live cluster by k
// VMs through PlaceDeltaSparse, and of shrinking it by k through
// ReleaseSubsetSparse, against a populated plant with the persistent
// tier index attached — the mid-job resize hot paths. Each op resizes
// and immediately undoes the resize, so the plant stays in steady state
// and the figure is the pure grow or shrink cost. BenchmarkPlaceDelta
// and BenchmarkReleaseSubset feed BENCH_elastic.json (make
// bench-elastic).
package bench

import (
	"fmt"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// BenchmarkPlaceDelta measures grow-by-k against the 16k-node and
// million-node plants at 60% utilization. The grow target is one of the
// prefilled clusters; k counts VMs spread over the plant's three types.
func BenchmarkPlaceDelta(b *testing.B) {
	if testing.Short() {
		b.Skip("delta plants are too heavy for -short runs")
	}
	const types = 3
	run := func(name string, clouds, racks, nodesPerRack, k int) {
		b.Run(name, func(b *testing.B) {
			topo, err := topology.Uniform(clouds, racks, nodesPerRack, topology.DefaultDistances())
			if err != nil {
				b.Fatal(err)
			}
			caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.DefaultInventoryConfig())
			if err != nil {
				b.Fatal(err)
			}
			ring := fillChurnRing(b, topo, caps, nodesPerRack, 60, benchSeed)
			cur := ring.ents[0]
			delta := make(model.Request, types)
			for j := 0; j < k; j++ {
				delta[j%types]++
			}
			var sp affinity.SparseAlloc
			h := &placement.OnlineHeuristic{}
			// One warm op sizes sp and the placer's scratch so the timed loop
			// reports the allocation-free steady state.
			if _, _, err := h.PlaceDeltaSparse(ring.idx, cur, delta, &sp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := h.PlaceDeltaSparse(ring.idx, cur, delta, &sp); err != nil {
					b.Fatal(err)
				}
				if err := ring.inv.AllocateList(sp.Entries); err != nil {
					b.Fatal(err)
				}
				if err := ring.inv.ReleaseList(sp.Entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("grow-by-3/10x40x40/util60", 10, 40, 40, 3)
	run("grow-by-12/10x40x40/util60", 10, 40, 40, 12)
	run("grow-by-3/100x100x100/util60", 100, 100, 100, 3)
	run("grow-by-12/100x100x100/util60", 100, 100, 100, 12)
}

// BenchmarkReleaseSubset measures shrink-by-k on the same plants: a
// prefilled cluster is grown by k once, and each op picks the k
// DC-minimizing victims of the merged cluster, releases them, and
// commits them back.
func BenchmarkReleaseSubset(b *testing.B) {
	if testing.Short() {
		b.Skip("delta plants are too heavy for -short runs")
	}
	const types = 3
	plant := func(clouds, racks, nodesPerRack int, ks ...int) {
		topo, err := topology.Uniform(clouds, racks, nodesPerRack, topology.DefaultDistances())
		if err != nil {
			b.Fatal(err)
		}
		caps, err := workload.RandomCapacities(benchSeed, topo.Nodes(), types, workload.DefaultInventoryConfig())
		if err != nil {
			b.Fatal(err)
		}
		ring := fillChurnRing(b, topo, caps, nodesPerRack, 60, benchSeed)
		for _, k := range ks {
			delta := make(model.Request, types)
			for j := 0; j < k; j++ {
				delta[j%types]++
			}
			// Grow the first prefilled cluster by k so it holds the k
			// VMs the shrink gives back.
			var sp affinity.SparseAlloc
			if _, _, err := ring.h.PlaceDeltaSparse(ring.idx, ring.ents[0], delta, &sp); err != nil {
				b.Fatal(err)
			}
			if err := ring.inv.AllocateList(sp.Entries); err != nil {
				b.Fatal(err)
			}
			merged := append(append([]affinity.VMEntry(nil), ring.ents[0]...), sp.Entries...)
			b.Run(fmt.Sprintf("shrink-by-%d/%dx%dx%d/util60", k, clouds, racks, nodesPerRack), func(b *testing.B) {
				// One warm op sizes the placer's shrink scratch.
				if _, err := ring.h.ReleaseSubsetSparse(topo, merged, delta); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					victims, err := ring.h.ReleaseSubsetSparse(topo, merged, delta)
					if err != nil {
						b.Fatal(err)
					}
					if err := ring.inv.ReleaseList(victims); err != nil {
						b.Fatal(err)
					}
					if err := ring.inv.AllocateList(victims); err != nil {
						b.Fatal(err)
					}
				}
			})
			if err := ring.inv.ReleaseList(sp.Entries); err != nil {
				b.Fatal(err)
			}
		}
	}
	plant(10, 40, 40, 3, 12)
	plant(100, 100, 100, 3, 12)
}
