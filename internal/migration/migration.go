// Package migration plans affinity-improving live migrations for running
// virtual clusters. The paper cites affinity-aware VM migration as the
// complementary mechanism to placement ("Affinity-aware virtual cluster
// VM migration technology is used to minimize the communication
// overhead", Section VI) and lists reacting to reconfiguration as future
// work; this package provides that mechanism on top of the same distance
// machinery.
//
// A Planner looks at the currently running clusters and the residual
// plant capacity and produces an ordered list of single-VM moves — each
// relocating one VM into free capacity (or trading same-type VMs between
// two clusters, which is capacity-neutral) so that the owning clusters'
// DC strictly decreases. Moves carry a traffic cost, the VM's memory
// image, which cloudsim reports as migration traffic.
package migration

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/topology"
)

// MoveKind distinguishes relocations from swaps.
type MoveKind int

const (
	// Relocate moves one VM into free capacity.
	Relocate MoveKind = iota
	// Swap trades same-type VMs between two clusters (capacity-neutral).
	Swap
)

func (k MoveKind) String() string {
	if k == Swap {
		return "swap"
	}
	return "relocate"
}

// Move is one planned migration step.
type Move struct {
	Kind    MoveKind
	Cluster int // index into the planner's cluster list
	// Peer is the second cluster of a Swap (unused for Relocate).
	Peer int
	Type model.VMTypeID
	From topology.NodeID
	To   topology.NodeID
	// Gain is the total DC reduction across the touched clusters.
	Gain float64
	// CostMB is the migration traffic (the moved VM images).
	CostMB float64
}

// Plan is an ordered, dependency-respecting list of moves: applying them
// front to back keeps every intermediate state feasible.
type Plan struct {
	Moves     []Move
	TotalGain float64
	TotalCost float64
}

// maxMoves caps the number of moves in one plan.
const maxMoves = 64

// Planner computes migration plans. The zero value is usable.
type Planner struct {
	// Obs, when non-nil, receives planner metrics (plan counts, planned
	// moves, gain and traffic histograms). Nil stays a strict no-op.
	Obs *obs.Registry

	obsOnce sync.Once
	metrics plannerMetrics
}

// plannerMetrics are the resolved obs handles; the zero value no-ops.
type plannerMetrics struct {
	plans  *obs.Counter
	moves  *obs.Counter
	gain   *obs.Histogram
	costMB *obs.Histogram
}

func (p *Planner) obsHandles() *plannerMetrics {
	p.obsOnce.Do(func() {
		if p.Obs == nil {
			return
		}
		p.metrics = plannerMetrics{
			plans:  p.Obs.Counter("migration.plans"),
			moves:  p.Obs.Counter("migration.planned_moves"),
			gain:   p.Obs.Histogram("migration.plan_gain", 0, 100, 20),
			costMB: p.Obs.Histogram("migration.plan_cost_mb", 0, 65536, 16),
		}
	})
	return &p.metrics
}

// memoryMB returns the migration traffic of one VM of the given type:
// its memory size in model.DefaultCatalog() when the plant has that
// catalog's type count, else a flat 1 GB.
func memoryMB(types int, vt model.VMTypeID) float64 {
	if def := model.DefaultCatalog(); def.Types() == types {
		return def[vt].MemoryGB * 1024
	}
	return 1024
}

// Plan computes an improving migration plan for the running clusters
// against the residual capacity matrix: up to 64 moves, each strictly
// lowering the total DC. Neither input is mutated.
func (p *Planner) Plan(t *topology.Topology, residual [][]int, clusters []affinity.Allocation) (*Plan, error) {
	if t == nil {
		return nil, errors.New("migration: nil topology")
	}
	if len(residual) != t.Nodes() {
		return nil, fmt.Errorf("migration: residual has %d rows, topology has %d nodes", len(residual), t.Nodes())
	}
	work := make([]affinity.Allocation, len(clusters))
	evs := make([]*affinity.DistanceEvaluator, len(clusters))
	for i, c := range clusters {
		if c == nil {
			continue
		}
		if len(c) != t.Nodes() {
			return nil, fmt.Errorf("migration: cluster %d has %d rows, topology has %d nodes", i, len(c), t.Nodes())
		}
		work[i] = c.Clone()
		evs[i] = affinity.NewDistanceEvaluator(t, work[i])
	}
	free := make([][]int, len(residual))
	for i := range residual {
		free[i] = append([]int(nil), residual[i]...)
	}

	plan := &Plan{}
	for len(plan.Moves) < maxMoves {
		mv, ok := bestMove(free, work, evs)
		if !ok {
			break
		}
		affinity.MoveVM(work[mv.Cluster], evs[mv.Cluster], free, mv.Type, mv.From, mv.To)
		if mv.Kind == Swap {
			affinity.MoveVM(work[mv.Peer], evs[mv.Peer], free, mv.Type, mv.To, mv.From)
		}
		plan.Moves = append(plan.Moves, mv)
		plan.TotalGain += mv.Gain
		plan.TotalCost += mv.CostMB
	}
	om := p.obsHandles()
	om.plans.Inc()
	om.moves.Add(int64(len(plan.Moves)))
	if len(plan.Moves) > 0 {
		om.gain.Observe(plan.TotalGain)
		om.costMB.Observe(plan.TotalCost)
	}
	return plan, nil
}

// bestMove walks the exchange neighbourhood (every relocation into free
// capacity, then every swap between cluster pairs) for the single
// largest strict gain. Candidates are priced through the clusters'
// evaluators (MovePreview), and the first candidate walked wins a tie.
func bestMove(free [][]int, clusters []affinity.Allocation, evs []*affinity.DistanceEvaluator) (Move, bool) {
	var best Move
	found := false
	consider := func(mv Move) {
		if !found || mv.Gain > best.Gain {
			best = mv
			found = true
		}
	}
	for ci, c := range clusters {
		if c == nil {
			continue
		}
		ev := evs[ci]
		d0, _ := ev.Distance()
		affinity.Relocations(c, ev, free, func(from topology.NodeID, vt model.VMTypeID, to topology.NodeID) {
			d1, _ := ev.MovePreview(from, to)
			if gain := d0 - d1; gain > 1e-12 {
				consider(Move{Kind: Relocate, Cluster: ci, Peer: -1, Type: vt, From: from, To: to, Gain: gain, CostMB: memoryMB(len(c[0]), vt)})
			}
		})
	}
	for ai, a := range clusters {
		if a == nil {
			continue
		}
		for bi := ai + 1; bi < len(clusters); bi++ {
			b := clusters[bi]
			if b == nil {
				continue
			}
			evA, evB := evs[ai], evs[bi]
			da0, _ := evA.Distance()
			db0, _ := evB.Distance()
			affinity.Swaps(a, b, evA, evB, func(p, q topology.NodeID, vt model.VMTypeID) bool {
				da1, _ := evA.MovePreview(p, q)
				db1, _ := evB.MovePreview(q, p)
				if gain := (da0 + db0) - (da1 + db1); gain > 1e-12 {
					consider(Move{Kind: Swap, Cluster: ai, Peer: bi, Type: vt, From: p, To: q, Gain: gain, CostMB: 2 * memoryMB(len(a[0]), vt)})
				}
				return false
			})
		}
	}
	return best, found
}

// ErrNoCapacity is returned by PlanReplacement when some lost VM cannot
// be hosted anywhere in the residual capacity — the degraded cluster
// cannot be evacuated in place and must be re-placed wholesale.
var ErrNoCapacity = errors.New("migration: insufficient residual capacity for replacement")

// PlanReplacement is the evacuation half of fault recovery: a node
// failure destroyed `lost[j]` VMs of each type j belonging to `cluster`
// (whose rows for the dead nodes are already zeroed), and replacements
// must be placed into the residual capacity. Each replacement VM goes to
// the feasible node minimizing the cluster's resulting DC — the same
// greedy single-VM step the planner's Relocate moves use, so evacuated
// clusters land as tight as a migration pass would leave them. The scan
// is deterministic (type-major, ascending node IDs, strict improvement
// to switch), inputs are not mutated, and the returned matrix holds only
// the replacement VMs so callers can Allocate it and merge it into the
// cluster.
func PlanReplacement(t *topology.Topology, residual [][]int, cluster affinity.Allocation, lost model.Request) (affinity.Allocation, error) {
	if t == nil {
		return nil, errors.New("migration: nil topology")
	}
	n := t.Nodes()
	if len(residual) != n || len(cluster) != n {
		return nil, fmt.Errorf("migration: residual has %d rows, cluster %d, topology %d nodes", len(residual), len(cluster), n)
	}
	ev := affinity.NewDistanceEvaluator(t, cluster)
	free := make([][]int, n)
	for i := range residual {
		free[i] = append([]int(nil), residual[i]...)
	}
	repl := affinity.NewAllocation(n, len(lost))
	for j, count := range lost {
		for v := 0; v < count; v++ {
			best := -1
			bestD := math.Inf(1)
			for i := 0; i < n; i++ {
				if free[i][j] == 0 {
					continue
				}
				d, _ := ev.AddPreview(topology.NodeID(i))
				if d < bestD {
					bestD, best = d, i
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("%w: no node can host a type-%d replacement", ErrNoCapacity, j)
			}
			ev.Add(topology.NodeID(best))
			free[best][j]--
			repl[best][j]++
		}
	}
	return repl, nil
}
