// Package sdexact solves the paper's Shortest Distance (SD, Definition 2)
// and Global Shortest Distance (GSD, Definition 4) problems exactly.
//
// # SD
//
// The paper formulates SD as an integer program (Section III.B). For a
// fixed central node N_k the objective Σ_i (Σ_j x_ij)·D_ik decomposes per
// VM type, and the feasible region {Σ_i x_ij = R_j, 0 ≤ x_ij ≤ L_ij} is a
// transportation polytope whose vertices are integral. Placing each type's
// VMs on nodes in ascending order of D_ik is therefore exactly optimal (an
// exchange argument — Theorem 1 of the paper — shows any other allocation
// can be improved by moving a VM to a closer node with spare capacity).
// Algorithm 1's build around a center is such a fill, so its scan over
// every candidate center (package placement) returns the ILP optimum:
// min_C min_k = min_k min_C (DESIGN.md §9).
//
// SolveSDLP solves the same per-center programs with the simplex of
// package lp: each is the one-request case of the fixed-centers GSD
// transportation LP below, and its integral vertices make branching
// unnecessary. It is the oracle Algorithm 1 is tested against, orders of
// magnitude slower than the scan.
//
// # GSD
//
// With the central node of every request fixed, GSD also decomposes per VM
// type into transportation problems (requests demand, nodes supply, cost
// D_i,center(req)), solved exactly by min-cost flow (package mcmf), with
// the LP as the tests' oracle. SolveGSD searches the space of center
// tuples by depth-first branch and bound with admissible per-request
// lower bounds. It is exponential in the number of requests in the worst
// case and intended for the small instances used to validate the
// heuristics.
package sdexact

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/lp"
	"affinitycluster/internal/mcmf"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// ErrInfeasible is returned when a request exceeds the available resources
// (R_j > A_j for some type j).
var ErrInfeasible = errors.New("sdexact: request exceeds available resources")

// SDResult is an optimal answer to the SD problem.
type SDResult struct {
	Alloc    affinity.Allocation
	Distance float64         // DC of the allocation — the SD(R) optimum
	Center   topology.NodeID // minimizing central node
}

// feasible checks that the requests share one width m, that l is an n×m
// matrix on t, that no demand and no cell of l is negative, and that the
// cells of l sum to no more than math.MaxInt (model.AddCapacity): malformed
// input, refused with errors that do not wrap ErrInfeasible. Each request
// is checked on its own before the demands are summed, since a sum can
// hide a negative demand. Then it checks Σ_q R^q_j ≤ Σ_i L_ij for all j
// (ErrInfeasible).
func feasible(t *topology.Topology, l [][]int, reqs ...model.Request) error {
	m := len(reqs[0])
	short := make([]int, m) // demand minus capacity, per type
	for q, r := range reqs {
		if len(r) != m {
			return fmt.Errorf("sdexact: request %d has %d types, request 0 has %d", q, len(r), m)
		}
		for j, v := range r {
			if v < 0 {
				return fmt.Errorf("sdexact: request %d has negative demand %d of type %d", q, v, j)
			}
			short[j] += v
		}
	}
	if len(l) != t.Nodes() {
		return fmt.Errorf("sdexact: capacity matrix has %d rows, topology has %d nodes", len(l), t.Nodes())
	}
	total := 0
	for i, row := range l {
		if len(row) != m {
			return fmt.Errorf("sdexact: capacity row %d has %d types, request has %d", i, len(row), m)
		}
		for j, c := range row {
			if c < 0 {
				return fmt.Errorf("sdexact: node %d has negative capacity %d of type %d", i, c, j)
			}
			var err error
			if total, err = model.AddCapacity(total, c); err != nil {
				return fmt.Errorf("sdexact: node %d capacity %d of type %d: %w", i, c, j, err)
			}
			short[j] -= c
		}
	}
	for _, v := range short {
		if v > 0 {
			return ErrInfeasible
		}
	}
	return nil
}

// SolveSDLP solves SD through the paper's integer program (Section III.B)
// with the simplex of package lp, one model per candidate central node.
// With the center fixed the program is a transportation problem, the
// one-request case of solveTransportationLP, and its LP relaxation has
// integral vertices, so no branching is needed. It is Algorithm 1's test
// oracle and the slow arm of the exact-solver ablation.
func SolveSDLP(t *topology.Topology, l [][]int, r model.Request) (*SDResult, error) {
	if err := feasible(t, l, r); err != nil {
		return nil, err
	}
	reqs := []model.Request{r}
	var best *SDResult
	for k := 0; k < t.Nodes(); k++ {
		center := topology.NodeID(k)
		allocs, dc, ok := solveTransportationLP(t, l, reqs, []topology.NodeID{center})
		if !ok {
			continue
		}
		if best == nil || dc < best.Distance-1e-9 {
			best = &SDResult{Alloc: allocs[0], Distance: dc, Center: center}
		}
	}
	if best == nil {
		return nil, ErrInfeasible
	}
	// Report the DC of the chosen allocation with its tie-broken central
	// node; the DC can only equal the scanned minimum (see package comment).
	best.Distance, best.Center = best.Alloc.Distance(t)
	return best, nil
}

// fill places r on the nodes nearest center — ascending D_i,center, ties
// toward lower IDs — and returns the cost Σ_ij x_ij·D_i,center, the
// optimum of the transportation problem with that center fixed (see
// package comment). ok is false when l cannot hold r.
func fill(t *topology.Topology, l [][]int, r model.Request, center topology.NodeID) (cost float64, ok bool) {
	order := make([]topology.NodeID, t.Nodes())
	for i := range order {
		order[i] = topology.NodeID(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		da, db := t.Distance(order[a], center), t.Distance(order[b], center)
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for j := range r {
		need := r[j]
		for _, i := range order {
			if need == 0 {
				break
			}
			take := min(l[i][j], need)
			cost += float64(take) * t.Distance(i, center)
			need -= take
		}
		if need > 0 {
			return 0, false
		}
	}
	return cost, true
}

// GSDResult is an exact answer to the global shortest-distance problem.
type GSDResult struct {
	Allocs  []affinity.Allocation
	Centers []topology.NodeID
	Total   float64 // Σ DC over all requests — the GSD optimum
}

// ErrTruncated reports that the GSD search hit its leaf budget; the
// returned result is the best incumbent, not a proven optimum.
var ErrTruncated = errors.New("sdexact: GSD search truncated")

// gsdLeaves caps the complete center assignments SolveGSD evaluates.
// Past it, SolveGSD returns the best found so far with ErrTruncated;
// callers validating heuristics on small instances never hit it.
const gsdLeaves = 100000

// SolveGSD computes the exact global optimum for a batch of requests
// sharing the capacity matrix l. Exponential in len(reqs); intended for
// validation-sized instances.
func SolveGSD(t *topology.Topology, l [][]int, reqs []model.Request) (*GSDResult, error) {
	return solveGSD(t, l, reqs, gsdLeaves)
}

// solveGSD is SolveGSD with a leaf budget of maxLeaves.
func solveGSD(t *topology.Topology, l [][]int, reqs []model.Request, maxLeaves int) (*GSDResult, error) {
	if len(reqs) == 0 {
		return &GSDResult{}, nil
	}
	if err := feasible(t, l, reqs...); err != nil {
		return nil, err
	}
	n := t.Nodes()

	// Per-request, per-center relaxed lower bound: optimal cost of serving
	// the request alone from center k on the full capacity matrix.
	p := len(reqs)
	lb := make([][]float64, p)
	lbBest := make([]float64, p)
	for q, r := range reqs {
		lb[q] = make([]float64, n)
		lbBest[q] = math.Inf(1)
		for k := 0; k < n; k++ {
			cost, ok := fill(t, l, r, topology.NodeID(k))
			if !ok {
				lb[q][k] = math.Inf(1)
				continue
			}
			lb[q][k] = cost
			if cost < lbBest[q] {
				lbBest[q] = cost
			}
		}
	}
	// Suffix sums of per-request best bounds for pruning.
	suffix := make([]float64, p+1)
	for q := p - 1; q >= 0; q-- {
		suffix[q] = suffix[q+1] + lbBest[q]
	}

	best := &GSDResult{Total: math.Inf(1)}
	centers := make([]topology.NodeID, p)
	leaves := 0
	truncated := false

	var dfs func(q int, partial float64)
	dfs = func(q int, partial float64) {
		if truncated {
			return
		}
		if q == p {
			leaves++
			if leaves > maxLeaves {
				truncated = true
				return
			}
			allocs, total, ok := solveTransportation(t, l, reqs, centers)
			if ok && total < best.Total-1e-9 {
				best.Allocs = allocs
				best.Centers = append([]topology.NodeID(nil), centers...)
				best.Total = total
			}
			return
		}
		// Order candidate centers by the request's relaxed bound so good
		// tuples are found early and pruning bites.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return lb[q][order[a]] < lb[q][order[b]] })
		for _, k := range order {
			if math.IsInf(lb[q][k], 1) {
				break
			}
			if partial+lb[q][k]+suffix[q+1] >= best.Total-1e-9 {
				break // bounds are sorted: no later center can help
			}
			centers[q] = topology.NodeID(k)
			dfs(q+1, partial+lb[q][k])
		}
	}
	dfs(0, 0)

	if math.IsInf(best.Total, 1) {
		if truncated {
			return nil, ErrTruncated
		}
		return nil, ErrInfeasible
	}
	if truncated {
		return best, ErrTruncated
	}
	return best, nil
}

// solveTransportation solves the fixed-centers GSD exactly: per VM type,
// a transportation problem with nodes as suppliers, requests as consumers,
// and cost D_i,center(req), solved by min-cost flow (exactly integral).
// solveTransportationLP is the simplex-based reference used by the test
// suite to cross-validate this path.
func solveTransportation(t *topology.Topology, l [][]int, reqs []model.Request, centers []topology.NodeID) ([]affinity.Allocation, float64, bool) {
	n := t.Nodes()
	p := len(reqs)
	m := len(reqs[0])
	allocs := make([]affinity.Allocation, p)
	for q := range allocs {
		allocs[q] = affinity.NewAllocation(n, m)
	}
	for j := 0; j < m; j++ {
		demand := make([]int, p)
		demandTotal := 0
		for q, r := range reqs {
			demand[q] = r[j]
			demandTotal += r[j]
		}
		if demandTotal == 0 {
			continue
		}
		cost := make([][]float64, n)
		supply := make([]int, n)
		for i := 0; i < n; i++ {
			cost[i] = make([]float64, p)
			for q := 0; q < p; q++ {
				cost[i][q] = t.Distance(topology.NodeID(i), centers[q])
			}
			supply[i] = l[i][j]
		}
		ship, _, err := mcmf.Transportation(cost, supply, demand)
		if err != nil {
			return nil, 0, false
		}
		for i := 0; i < n; i++ {
			for q := 0; q < p; q++ {
				allocs[q][i][j] += ship[i][q]
			}
		}
	}
	// Report the true Σ DC(C^q): the transportation objective fixes each
	// request's center, but DC takes the best center, which can only be
	// ≤. Using the true DC keeps the result comparable with the
	// heuristics.
	trueTotal := 0.0
	for q := range allocs {
		d, _ := allocs[q].Distance(t)
		trueTotal += d
	}
	return allocs, trueTotal, true
}

// solveTransportationLP is the simplex-based reference implementation of
// solveTransportation, retained for cross-validation: transportation
// polytopes have integral vertices, so rounding the LP optimum is exact.
func solveTransportationLP(t *topology.Topology, l [][]int, reqs []model.Request, centers []topology.NodeID) ([]affinity.Allocation, float64, bool) {
	n := t.Nodes()
	p := len(reqs)
	m := len(reqs[0])
	allocs := make([]affinity.Allocation, p)
	for q := range allocs {
		allocs[q] = affinity.NewAllocation(n, m)
	}
	for j := 0; j < m; j++ {
		demandTotal := 0
		for _, r := range reqs {
			demandTotal += r[j]
		}
		if demandTotal == 0 {
			continue
		}
		// Variables x[q][i] laid out as q*n + i.
		prob := lp.NewProblem(p * n)
		obj := make([]float64, p*n)
		for q := 0; q < p; q++ {
			for i := 0; i < n; i++ {
				obj[q*n+i] = t.Distance(topology.NodeID(i), centers[q])
			}
		}
		if err := prob.SetObjective(obj); err != nil {
			return nil, 0, false
		}
		for q := 0; q < p; q++ {
			vars := make([]int, n)
			coef := make([]float64, n)
			for i := 0; i < n; i++ {
				vars[i] = q*n + i
				coef[i] = 1
			}
			if err := prob.AddSparseConstraint(vars, coef, lp.EQ, float64(reqs[q][j])); err != nil {
				return nil, 0, false
			}
		}
		for i := 0; i < n; i++ {
			vars := make([]int, p)
			coef := make([]float64, p)
			for q := 0; q < p; q++ {
				vars[q] = q*n + i
				coef[q] = 1
			}
			if err := prob.AddSparseConstraint(vars, coef, lp.LE, float64(l[i][j])); err != nil {
				return nil, 0, false
			}
		}
		sol, err := prob.Solve()
		if err != nil || sol.Status != lp.Optimal {
			return nil, 0, false
		}
		for q := 0; q < p; q++ {
			for i := 0; i < n; i++ {
				x := sol.X[q*n+i]
				xi := int(math.Round(x))
				if math.Abs(x-float64(xi)) > 1e-4 {
					return nil, 0, false // non-integral vertex: numerical trouble
				}
				allocs[q][i][j] += xi
			}
		}
	}
	trueTotal := 0.0
	for q := range allocs {
		d, _ := allocs[q].Distance(t)
		trueTotal += d
	}
	return allocs, trueTotal, true
}
