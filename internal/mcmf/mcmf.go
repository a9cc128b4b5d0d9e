// Package mcmf implements minimum-cost maximum-flow on integer-capacity
// networks using successive shortest augmenting paths with Johnson
// potentials (Bellman-Ford initialization, Dijkstra augmentation).
//
// It is the combinatorial fast path for the transportation problems at
// the heart of the paper's provisioning formulations: for a fixed central
// node, the SD problem is a transportation problem (supplies = remaining
// node capacities, demands = the request vector), and so is the
// fixed-centers GSD subproblem. The general LP route (package lp) solves
// the same instances and cross-checks this one; mcmf is asymptotically and
// practically faster and exactly integral by construction.
package mcmf

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
)

// Graph is a flow network under construction. Nodes are dense ints.
type Graph struct {
	n     int
	arcs  []arc
	heads [][]int // adjacency: node → arc indices (including reverse arcs)
}

type arc struct {
	to   int
	cap  int
	cost float64
	flow int
	rev  int // index of the reverse arc
}

// NewGraph creates a network with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mcmf: NewGraph(%d) needs at least one node", n))
	}
	return &Graph{n: n, heads: make([][]int, n)}
}

// AddArc adds a directed arc u→v with the given capacity and per-unit
// cost, returning its index for later flow inspection.
func (g *Graph) AddArc(u, v, capacity int, cost float64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("mcmf: arc (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("mcmf: negative capacity %d", capacity)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return 0, fmt.Errorf("mcmf: non-finite cost %v", cost)
	}
	fwd := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: v, cap: capacity, cost: cost, rev: fwd + 1})
	g.arcs = append(g.arcs, arc{to: u, cap: 0, cost: -cost, rev: fwd})
	g.heads[u] = append(g.heads[u], fwd)
	g.heads[v] = append(g.heads[v], fwd+1)
	return fwd, nil
}

// Flow returns the flow currently on the arc with the given index.
func (g *Graph) Flow(arcIdx int) (int, error) {
	if arcIdx < 0 || arcIdx >= len(g.arcs) || arcIdx%2 != 0 {
		return 0, fmt.Errorf("mcmf: %d is not a forward arc index", arcIdx)
	}
	return g.arcs[arcIdx].flow, nil
}

// Result summarizes a run.
type Result struct {
	Flow int     // units shipped
	Cost float64 // total cost of the shipped flow
}

// ErrNegativeCycle is returned when the initial potential computation
// detects a negative-cost cycle (the model is malformed; transportation
// instances never produce one).
var ErrNegativeCycle = errors.New("mcmf: negative-cost cycle")

// MinCostFlow ships up to maxFlow units from s to t at minimum cost,
// stopping early when t becomes unreachable. Pass maxFlow < 0 to ship as
// much as possible.
func (g *Graph) MinCostFlow(s, t, maxFlow int) (*Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return nil, fmt.Errorf("mcmf: endpoints (%d,%d) out of range [0,%d)", s, t, g.n)
	}
	if s == t {
		return nil, errors.New("mcmf: source equals sink")
	}
	if maxFlow < 0 {
		maxFlow = math.MaxInt
	}
	pot, err := g.initialPotentials(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	dist := make([]float64, g.n)
	prevArc := make([]int, g.n)
	for res.Flow < maxFlow {
		if !g.dijkstra(s, t, pot, dist, prevArc) {
			break // t unreachable in the residual network
		}
		// Update potentials with the new shortest distances.
		for v := 0; v < g.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - res.Flow
		for v := t; v != s; {
			a := &g.arcs[prevArc[v]]
			if r := a.cap - a.flow; r < push {
				push = r
			}
			v = g.arcs[a.rev].to
		}
		for v := t; v != s; {
			a := &g.arcs[prevArc[v]]
			a.flow += push
			g.arcs[a.rev].flow -= push
			res.Cost += float64(push) * a.cost
			v = g.arcs[a.rev].to
		}
		res.Flow += push
	}
	return res, nil
}

// initialPotentials runs Bellman-Ford from s over arcs with residual
// capacity, so that reduced costs become non-negative for Dijkstra. With
// non-negative arc costs this converges immediately.
func (g *Graph) initialPotentials(s int) ([]float64, error) {
	pot := make([]float64, g.n)
	for i := range pot {
		pot[i] = math.Inf(1)
	}
	pot[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if math.IsInf(pot[u], 1) {
				continue
			}
			for _, ai := range g.heads[u] {
				a := g.arcs[ai]
				if a.cap-a.flow <= 0 {
					continue
				}
				if nd := pot[u] + a.cost; nd < pot[a.to]-1e-12 {
					pot[a.to] = nd
					changed = true
				}
			}
		}
		if !changed {
			// Unreached nodes keep +Inf; normalize to 0 so reduced costs
			// stay finite if they become reachable later.
			for i := range pot {
				if math.IsInf(pot[i], 1) {
					pot[i] = 0
				}
			}
			return pot, nil
		}
	}
	return nil, ErrNegativeCycle
}

// dijkstra finds shortest reduced-cost paths from s; returns false when t
// is unreachable. prevArc[v] records the arc entering v on the path.
func (g *Graph) dijkstra(s, t int, pot, dist []float64, prevArc []int) bool {
	for i := range dist {
		dist[i] = math.Inf(1)
		prevArc[i] = -1
	}
	dist[s] = 0
	pq := &nodeHeap{{node: s, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		if item.dist > dist[item.node]+1e-12 {
			continue // stale entry
		}
		u := item.node
		for _, ai := range g.heads[u] {
			a := g.arcs[ai]
			if a.cap-a.flow <= 0 {
				continue
			}
			rc := a.cost + pot[u] - pot[a.to]
			if rc < 0 && rc > -1e-9 {
				rc = 0 // rounding guard
			}
			if nd := dist[u] + rc; nd < dist[a.to]-1e-12 {
				dist[a.to] = nd
				prevArc[a.to] = ai
				heap.Push(pq, nodeItem{node: a.to, dist: nd})
			}
		}
	}
	return !math.IsInf(dist[t], 1)
}

type nodeItem struct {
	node int
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Transportation solves the classic transportation problem: ship
// demand[j] units to each consumer from suppliers with supply[i] units at
// cost[i][j] per unit. It returns the shipment matrix and total cost, or
// an error if total demand exceeds total supply or shapes are ragged.
func Transportation(cost [][]float64, supply, demand []int) ([][]int, float64, error) {
	rows := len(supply)
	cols := len(demand)
	if rows == 0 || cols == 0 {
		return nil, 0, errors.New("mcmf: empty transportation instance")
	}
	if len(cost) != rows {
		return nil, 0, fmt.Errorf("mcmf: cost has %d rows, want %d", len(cost), rows)
	}
	totalSupply, totalDemand := 0, 0
	for _, s := range supply {
		if s < 0 {
			return nil, 0, errors.New("mcmf: negative supply")
		}
		totalSupply += s
	}
	for _, d := range demand {
		if d < 0 {
			return nil, 0, errors.New("mcmf: negative demand")
		}
		totalDemand += d
	}
	if totalDemand > totalSupply {
		return nil, 0, fmt.Errorf("mcmf: demand %d exceeds supply %d", totalDemand, totalSupply)
	}
	// Nodes: 0 = source, 1..rows = suppliers, rows+1..rows+cols =
	// consumers, rows+cols+1 = sink.
	g := NewGraph(rows + cols + 2)
	src, sink := 0, rows+cols+1
	for i := 0; i < rows; i++ {
		if _, err := g.AddArc(src, 1+i, supply[i], 0); err != nil {
			return nil, 0, err
		}
	}
	arcIdx := make([][]int, rows)
	for i := 0; i < rows; i++ {
		if len(cost[i]) != cols {
			return nil, 0, fmt.Errorf("mcmf: cost row %d has %d entries, want %d", i, len(cost[i]), cols)
		}
		arcIdx[i] = make([]int, cols)
		for j := 0; j < cols; j++ {
			idx, err := g.AddArc(1+i, 1+rows+j, supply[i], cost[i][j])
			if err != nil {
				return nil, 0, err
			}
			arcIdx[i][j] = idx
		}
	}
	for j := 0; j < cols; j++ {
		if _, err := g.AddArc(1+rows+j, sink, demand[j], 0); err != nil {
			return nil, 0, err
		}
	}
	res, err := g.MinCostFlow(src, sink, totalDemand)
	if err != nil {
		return nil, 0, err
	}
	if res.Flow < totalDemand {
		return nil, 0, fmt.Errorf("mcmf: only %d of %d units shippable", res.Flow, totalDemand)
	}
	ship := make([][]int, rows)
	for i := range ship {
		ship[i] = make([]int, cols)
		for j := 0; j < cols; j++ {
			f, err := g.Flow(arcIdx[i][j])
			if err != nil {
				return nil, 0, err
			}
			ship[i][j] = f
		}
	}
	return ship, res.Cost, nil
}
