package migration

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

func twoRacks(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// applyPlan realizes a plan in place, first checking that each move
// still applies: its VM is where the move takes it from, and its target
// has room (a relocation) or holds the peer's VM (a swap).
func applyPlan(plan *Plan, clusters []affinity.Allocation, residual [][]int) error {
	for i, mv := range plan.Moves {
		c := clusters[mv.Cluster]
		if c == nil || c[mv.From][mv.Type] == 0 {
			return fmt.Errorf("move %d no longer applicable", i)
		}
		switch mv.Kind {
		case Relocate:
			if residual[mv.To][mv.Type] == 0 {
				return fmt.Errorf("move %d target capacity gone", i)
			}
			residual[mv.From][mv.Type]++
			residual[mv.To][mv.Type]--
		case Swap:
			peer := clusters[mv.Peer]
			if peer == nil || peer[mv.To][mv.Type] == 0 {
				return fmt.Errorf("move %d swap peer changed", i)
			}
			peer.Remove(mv.To, mv.Type)
			peer.Add(mv.From, mv.Type)
		}
		c.Remove(mv.From, mv.Type)
		c.Add(mv.To, mv.Type)
	}
	return nil
}

// totalDistance sums DC over the non-nil clusters.
func totalDistance(t *topology.Topology, clusters []affinity.Allocation) float64 {
	total := 0.0
	for _, c := range clusters {
		if c != nil {
			d, _ := c.Distance(t)
			total += d
		}
	}
	return total
}

func TestPlanValidation(t *testing.T) {
	tp := twoRacks(t)
	p := &Planner{}
	if _, err := p.Plan(nil, nil, nil); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := p.Plan(tp, [][]int{{1}}, nil); err == nil {
		t.Error("short residual accepted")
	}
	bad := []affinity.Allocation{{{1}}}
	res := make([][]int, tp.Nodes())
	for i := range res {
		res[i] = []int{0}
	}
	if _, err := p.Plan(tp, res, bad); err == nil {
		t.Error("short cluster accepted")
	}
}

func TestRelocationIntoFreedCapacity(t *testing.T) {
	tp := twoRacks(t)
	// A cluster straddling racks: 3 VMs on node 0 (rack 0), 1 on node 3
	// (rack 1). Node 1 (rack 0) has a free slot — the planner must move
	// the stray VM there.
	cluster := affinity.Allocation{{3}, {0}, {0}, {1}, {0}, {0}}
	residual := [][]int{{0}, {1}, {0}, {0}, {0}, {0}}
	p := &Planner{}
	plan, err := p.Plan(tp, residual, []affinity.Allocation{cluster})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 {
		t.Fatalf("moves = %+v", plan.Moves)
	}
	mv := plan.Moves[0]
	if mv.Kind != Relocate || mv.From != 3 || mv.To != 1 {
		t.Fatalf("move = %+v", mv)
	}
	// Gain: DC before = 3 VMs@0 +1@3 → center 0: d2 = 2. After: center 0:
	// d1 = 1. Gain 1.
	if mv.Gain != 1 {
		t.Errorf("gain = %v, want 1", mv.Gain)
	}
	if mv.CostMB <= 0 {
		t.Error("zero migration cost")
	}
	// Inputs untouched.
	if cluster[3][0] != 1 || residual[1][0] != 1 {
		t.Error("Plan mutated its inputs")
	}
	// Two strays, plenty of free capacity: the plan makes 2 moves.
	cluster = affinity.Allocation{{3}, {0}, {0}, {1}, {1}, {0}}
	residual = [][]int{{0}, {2}, {2}, {0}, {0}, {0}}
	plan, err = p.Plan(tp, residual, []affinity.Allocation{cluster})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 2 {
		t.Fatalf("two-stray moves = %d, want 2", len(plan.Moves))
	}
}

func TestApplyRealizesPlan(t *testing.T) {
	tp := twoRacks(t)
	cluster := affinity.Allocation{{3}, {0}, {0}, {1}, {0}, {0}}
	residual := [][]int{{0}, {1}, {0}, {0}, {0}, {0}}
	p := &Planner{}
	clusters := []affinity.Allocation{cluster}
	plan, err := p.Plan(tp, residual, clusters)
	if err != nil {
		t.Fatal(err)
	}
	before := totalDistance(tp, clusters)
	if err := applyPlan(plan, clusters, residual); err != nil {
		t.Fatal(err)
	}
	after := totalDistance(tp, clusters)
	if before-after != plan.TotalGain {
		t.Errorf("gain mismatch: %v vs %v", before-after, plan.TotalGain)
	}
	if cluster[1][0] != 1 || cluster[3][0] != 0 {
		t.Errorf("apply wrong: %v", cluster)
	}
	if residual[1][0] != 0 || residual[3][0] != 1 {
		t.Errorf("residual wrong: %v", residual)
	}
}

func TestSwapBetweenClusters(t *testing.T) {
	tp := twoRacks(t)
	// Cluster A concentrated on rack 0 with a stray on node 3 (rack 1);
	// cluster B concentrated on rack 1 with a stray on node 1 (rack 0).
	// No free capacity anywhere: only a swap fixes both.
	a := affinity.Allocation{{2}, {0}, {0}, {1}, {0}, {0}}
	b := affinity.Allocation{{0}, {1}, {0}, {2}, {0}, {0}}
	residual := make([][]int, tp.Nodes())
	for i := range residual {
		residual[i] = []int{0}
	}
	p := &Planner{}
	clusters := []affinity.Allocation{a, b}
	plan, err := p.Plan(tp, residual, clusters)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("no swap found")
	}
	if plan.Moves[0].Kind != Swap {
		t.Fatalf("move = %+v", plan.Moves[0])
	}
	if err := applyPlan(plan, clusters, residual); err != nil {
		t.Fatal(err)
	}
	// After the swap A = {2 on node 0, 1 on node 1} (DC = d1 = 1) and
	// B = {3 on node 3} (DC = 0): total 1, down from 4.
	if got := totalDistance(tp, clusters); got != 1 {
		t.Errorf("total distance after swap = %v, want 1", got)
	}
}

func TestNilClustersSkipped(t *testing.T) {
	tp := twoRacks(t)
	residual := make([][]int, tp.Nodes())
	for i := range residual {
		residual[i] = []int{1}
	}
	plan, err := (&Planner{}).Plan(tp, residual, []affinity.Allocation{nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Error("moves for nil clusters")
	}
}

func TestMoveKindString(t *testing.T) {
	if Relocate.String() != "relocate" || Swap.String() != "swap" {
		t.Error("MoveKind strings wrong")
	}
}

func TestMemoryCostUsesCatalog(t *testing.T) {
	tp := twoRacks(t)
	cluster := affinity.Allocation{{0, 0, 3}, {0, 0, 0}, {0, 0, 0}, {0, 0, 1}, {0, 0, 0}, {0, 0, 0}}
	residual := make([][]int, tp.Nodes())
	for i := range residual {
		residual[i] = []int{0, 0, 0}
	}
	residual[1][2] = 1
	plan, err := (&Planner{}).Plan(tp, residual, []affinity.Allocation{cluster})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 1 {
		t.Fatalf("moves = %d", len(plan.Moves))
	}
	// Large instance (Table I): 7.5 GB → 7680 MB.
	if plan.Moves[0].CostMB != 7.5*1024 {
		t.Errorf("cost = %v, want 7680", plan.Moves[0].CostMB)
	}
}

// Property: plans strictly reduce total DC by exactly TotalGain, never
// violate residual capacity, and preserve each cluster's request vector.
func TestQuickPlanSoundness(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	n := tp.Nodes()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random running clusters and residual capacity.
		clusters := make([]affinity.Allocation, 2+r.Intn(2))
		for ci := range clusters {
			c := affinity.NewAllocation(n, 2)
			for v := 0; v < 2+r.Intn(5); v++ {
				c[r.Intn(n)][r.Intn(2)]++
			}
			clusters[ci] = c
		}
		residual := make([][]int, n)
		for i := range residual {
			residual[i] = []int{r.Intn(2), r.Intn(2)}
		}
		vecsBefore := make([]model.Request, len(clusters))
		for ci, c := range clusters {
			vecsBefore[ci] = c.Vector()
		}
		before := totalDistance(tp, clusters)
		plan, err := (&Planner{}).Plan(tp, residual, clusters)
		if err != nil {
			return false
		}
		if err := applyPlan(plan, clusters, residual); err != nil {
			return false
		}
		after := totalDistance(tp, clusters)
		if before-after < plan.TotalGain-1e-9 || before-after > plan.TotalGain+1e-9 {
			return false
		}
		for i := range residual {
			for j := range residual[i] {
				if residual[i][j] < 0 {
					return false
				}
			}
		}
		for ci, c := range clusters {
			got := c.Vector()
			for j := range got {
				if got[j] != vecsBefore[ci][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPlanReplacementPrefersClusterRack(t *testing.T) {
	// 2 racks × 3 nodes. The cluster lives on nodes 0 and 1 (rack 0);
	// node 2 (rack 0) and node 3 (rack 1) both have free capacity. The
	// replacement for one lost VM must land on node 2, the same rack.
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	cluster := affinity.NewAllocation(6, 1)
	cluster[0][0] = 2
	cluster[1][0] = 1
	residual := [][]int{{0}, {0}, {1}, {1}, {0}, {0}}
	repl, err := PlanReplacement(tp, residual, cluster, model.Request{1})
	if err != nil {
		t.Fatal(err)
	}
	if repl[2][0] != 1 || repl.TotalVMs() != 1 {
		t.Errorf("replacement = %v, want 1 VM on node 2", repl)
	}
	// Inputs must be untouched.
	if cluster.TotalVMs() != 3 || residual[2][0] != 1 {
		t.Error("PlanReplacement mutated its inputs")
	}
}

func TestPlanReplacementMultiVMAndNoCapacity(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	cluster := affinity.NewAllocation(6, 2)
	cluster[0][0] = 1
	residual := [][]int{{0, 0}, {1, 1}, {1, 0}, {2, 2}, {0, 0}, {0, 0}}
	repl, err := PlanReplacement(tp, residual, cluster, model.Request{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if repl.TotalVMs() != 3 {
		t.Fatalf("placed %d VMs, want 3", repl.TotalVMs())
	}
	// All replacements must respect residual capacity.
	for i := range repl {
		for j, k := range repl[i] {
			if k > residual[i][j] {
				t.Errorf("node %d type %d: placed %d, residual %d", i, j, k, residual[i][j])
			}
		}
	}
	// Rack 0 (nodes 0–2) can host both type-0 VMs; they must stay with
	// the cluster rather than straddle into rack 1.
	if repl[1][0]+repl[2][0] != 2 {
		t.Errorf("type-0 replacements left the cluster rack: %v", repl)
	}
	if _, err := PlanReplacement(tp, residual, cluster, model.Request{9, 0}); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("impossible replacement: %v", err)
	}
}
