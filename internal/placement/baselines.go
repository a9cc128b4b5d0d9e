package placement

import (
	"math/rand"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// Random places each requested VM on a uniformly random node with spare
// capacity of its type — the affinity-oblivious strawman a generic IaaS
// scheduler approximates, used as the "random topology" arm of the
// MapReduce experiments.
type Random struct {
	// Rand supplies randomness; required. Not safe for concurrent Place.
	Rand *rand.Rand
}

// Name implements Placer.
func (p *Random) Name() string { return "random" }

// Place implements Placer.
func (p *Random) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	if err := admit(t, l, r); err != nil {
		return nil, err
	}
	n := t.Nodes()
	alloc := affinity.NewAllocation(n, len(r))
	remain := cloneMatrix(l)
	for j, count := range r {
		for v := 0; v < count; v++ {
			// Collect candidates with spare capacity for this type.
			var candidates []int
			for i := 0; i < n; i++ {
				if remain[i][j] > 0 {
					candidates = append(candidates, i)
				}
			}
			i := candidates[p.Rand.Intn(len(candidates))]
			alloc[i][j]++
			remain[i][j]--
		}
	}
	return alloc, nil
}

// FirstFit scans nodes in ID order and takes as much as possible from each
// — the classic Best-Fit/First-Fit family the related-work section cites
// for load-oriented VM scheduling.
type FirstFit struct{}

// Name implements Placer.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Placer.
func (FirstFit) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	if err := admit(t, l, r); err != nil {
		return nil, err
	}
	n := t.Nodes()
	alloc := affinity.NewAllocation(n, len(r))
	residual := r.Clone()
	for i := 0; i < n && !residual.IsZero(); i++ {
		grab := model.Min(l[i], residual)
		for j, k := range grab {
			alloc[i][j] += k
			residual[j] -= k
		}
	}
	return alloc, nil
}

// RoundRobinStripe spreads VMs one at a time across nodes in rotation —
// the anti-affinity extreme that maximizes the cluster's spread, included
// to bound the distance metric from above in the benchmarks.
type RoundRobinStripe struct{}

// Name implements Placer.
func (RoundRobinStripe) Name() string { return "round-robin" }

// Place implements Placer.
func (RoundRobinStripe) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	if err := admit(t, l, r); err != nil {
		return nil, err
	}
	n := t.Nodes()
	alloc := affinity.NewAllocation(n, len(r))
	remain := cloneMatrix(l)
	cursor := 0
	for j, count := range r {
		for v := 0; v < count; v++ {
			for probe := 0; probe < n; probe++ {
				i := (cursor + probe) % n
				if remain[i][j] > 0 {
					alloc[i][j]++
					remain[i][j]--
					cursor = (i + 1) % n
					break
				}
			}
		}
	}
	return alloc, nil
}

// PackBestFit fills nodes in descending order of how much of the request
// they can supply — a capacity-packing heuristic that is affinity-blind
// (it ignores racks entirely) yet tends to produce few fragments.
type PackBestFit struct{}

// Name implements Placer.
func (PackBestFit) Name() string { return "pack-best-fit" }

// Place implements Placer.
func (PackBestFit) Place(t *topology.Topology, l [][]int, r model.Request) (affinity.Allocation, error) {
	if err := admit(t, l, r); err != nil {
		return nil, err
	}
	n := t.Nodes()
	alloc := affinity.NewAllocation(n, len(r))
	residual := r.Clone()
	for !residual.IsZero() {
		best, bestSupply := -1, 0
		for i := 0; i < n; i++ {
			free := model.Sub(l[i], alloc[i])
			if s := model.Sum(model.Min(free, residual)); s > bestSupply {
				best, bestSupply = i, s
			}
		}
		if best < 0 {
			break // cannot happen after admit; defensive
		}
		grab := model.Min(model.Sub(l[best], alloc[best]), residual)
		for j, k := range grab {
			alloc[best][j] += k
			residual[j] -= k
		}
	}
	return alloc, nil
}
