// Package integration ties the subsystems together end to end: the tests
// here cross module boundaries on purpose — placing a cluster with
// Algorithm 1 and executing MapReduce on it, replaying recorded traces
// through the cloud simulator, and cross-checking the exact solvers at
// the paper plant's scale.
package integration

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/dfs"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/netmodel"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/trace"
	"affinitycluster/internal/vcluster"
	"affinitycluster/internal/workload"
)

// runJobOn executes a WordCount on an allocation and returns its counters.
func runJobOn(t *testing.T, topo *topology.Topology, alloc affinity.Allocation) *mapreduce.Counters {
	t.Helper()
	cluster, err := vcluster.FromAllocation(topo, alloc)
	if err != nil {
		t.Fatal(err)
	}
	engine := eventsim.New()
	netCfg := netmodel.DefaultConfig()
	netCfg.RackUplinkMBps = 80
	net, err := netmodel.NewFlowSim(engine, topo, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := dfs.New(cluster, dfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.WriteRotating("input", 16*64); err != nil {
		t.Fatal(err)
	}
	sim, err := mapreduce.New(engine, net, cluster, fsys, mapreduce.DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	counters, err := sim.Run(mapreduce.WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	return counters
}

// TestProvisionThenExecute is the full pipeline the paper envisions: a
// user requests a virtual cluster, the provider places it affinity-aware,
// and the MapReduce job on it beats the same job on an affinity-blind
// cluster of equal capability.
func TestProvisionThenExecute(t *testing.T) {
	topo, err := topology.Uniform(1, 4, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	caps := make([][]int, topo.Nodes())
	for i := range caps {
		caps[i] = []int{2}
	}
	req := model.Request{8}

	affine, err := (&placement.OnlineHeuristic{}).Place(topo, caps, req)
	if err != nil {
		t.Fatal(err)
	}
	blind, err := placement.RoundRobinStripe{}.Place(topo, caps, req)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := affine.PairwiseAffinity(topo), blind.PairwiseAffinity(topo); a >= b {
		t.Fatalf("affinity-aware cluster not tighter: %v vs %v", a, b)
	}
	cAffine := runJobOn(t, topo, affine)
	cBlind := runJobOn(t, topo, blind)
	if cAffine.Runtime >= cBlind.Runtime {
		t.Errorf("affinity-aware cluster not faster: %.2fs vs %.2fs", cAffine.Runtime, cBlind.Runtime)
	}
	if cAffine.ShuffleRemoteMB > cBlind.ShuffleRemoteMB {
		t.Errorf("affinity-aware cluster shuffles more cross-rack: %v vs %v",
			cAffine.ShuffleRemoteMB, cBlind.ShuffleRemoteMB)
	}
}

// TestTraceRecordReplay checks that a recorded trace replayed through the
// cloud simulator reproduces metrics exactly.
func TestTraceRecordReplay(t *testing.T) {
	topo := topology.PaperSimPlant()
	reqs, err := workload.RandomRequests(31, 25, 3, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		t.Fatal(err)
	}
	timed, err := workload.TimedRequests(32, reqs, workload.DefaultArrivalConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, "integration", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.CopySource(w, model.NewSliceSource(timed)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(requests []model.TimedRequest) *cloudsim.Metrics {
		caps, err := workload.RandomCapacities(33, topo.Nodes(), 3, workload.DefaultInventoryConfig())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cloudsim.New(topo, inv, &placement.OnlineHeuristic{}, cloudsim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.RunStream(model.NewSliceSource(requests))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	orig := run(timed)
	var replayed []model.TimedRequest
	for {
		r, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		replayed = append(replayed, r)
	}
	replay := run(replayed)
	if orig.Served != replay.Served || orig.TotalDistance != replay.TotalDistance ||
		orig.MakeSpan != replay.MakeSpan {
		t.Errorf("replay diverged: %+v vs %+v", orig, replay)
	}
}

// TestExactSolverAgreementAtScale cross-checks Algorithm 1 against the
// paper's program, solved per center by the simplex, on the full paper
// plant. At most one VM of each type per node forces the request to
// spread, so the optimum the two agree on is positive.
func TestExactSolverAgreementAtScale(t *testing.T) {
	topo := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(61, topo.Nodes(), 3, workload.InventoryConfig{MaxPerType: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := model.Request{4, 3, 2}
	simplex, err := sdexact.SolveSDLP(topo, caps, req)
	if err != nil {
		t.Fatal(err)
	}
	if simplex.Distance <= 0 {
		t.Fatalf("optimum %v: the instance no longer forces a spread", simplex.Distance)
	}
	alloc, err := (&placement.OnlineHeuristic{}).Place(topo, caps, req)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := alloc.Distance(topo); d != simplex.Distance {
		t.Errorf("Algorithm 1 %v != simplex %v", d, simplex.Distance)
	}
}

// TestGlobalSubOptAgainstGSDOptimum pins Algorithm 2 (sequential
// Algorithm 1, then Theorem-2 exchanges) against the exact GSD optimum
// over a fixed set of three-request batches on the paper plant. At most
// one VM of each type per node makes every optimum positive. The
// heuristic's summed total is a ceiling that refactors must not exceed;
// skipping the exchange step raises it.
func TestGlobalSubOptAgainstGSDOptimum(t *testing.T) {
	const (
		seeds      = 40
		optSum     = 506 // Σ of the exact optima over the seed set
		heurCeil   = 513 // Σ of Algorithm 2's totals when this was pinned
		batchTypes = 3
	)
	topo := topology.PaperSimPlant()
	var heur, opt float64
	above := 0
	for seed := int64(0); seed < seeds; seed++ {
		caps, err := workload.RandomCapacities(seed, topo.Nodes(), batchTypes, workload.InventoryConfig{MaxPerType: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]model.Request, 3)
		for i := range reqs {
			reqs[i] = make(model.Request, batchTypes)
			for j := range reqs[i] {
				reqs[i][j] = 1 + rng.Intn(4)
			}
		}
		exact, err := sdexact.SolveGSD(topo, caps, reqs)
		if err != nil {
			t.Fatalf("seed %d: SolveGSD: %v", seed, err)
		}
		if exact.Total <= 0 {
			t.Fatalf("seed %d: optimum %v: the batch no longer forces a spread", seed, exact.Total)
		}
		res, err := (&placement.GlobalSubOpt{}).PlaceBatch(topo, caps, reqs)
		if err != nil {
			t.Fatalf("seed %d: PlaceBatch: %v", seed, err)
		}
		if res.Failed != 0 {
			t.Fatalf("seed %d: %d requests failed on a feasible batch", seed, res.Failed)
		}
		used := affinity.NewAllocation(topo.Nodes(), batchTypes)
		total := 0.0
		for qi, a := range res.Allocs {
			if !a.Satisfies(reqs[qi]) {
				t.Fatalf("seed %d: request %d got %v, want %v", seed, qi, a.Vector(), reqs[qi])
			}
			for i := range a {
				for j, k := range a[i] {
					used[i][j] += k
				}
			}
			d, _ := a.Distance(topo)
			total += d
		}
		if !used.Fits(caps) {
			t.Fatalf("seed %d: the batch's combined allocation exceeds L", seed)
		}
		if math.Abs(total-res.Total) > 1e-9 {
			t.Errorf("seed %d: Total %v, allocations sum to %v", seed, res.Total, total)
		}
		if res.Total < exact.Total-1e-9 {
			t.Errorf("seed %d: heuristic %v below the optimum %v", seed, res.Total, exact.Total)
		}
		if res.Total > exact.Total+1e-9 {
			above++
		}
		heur += res.Total
		opt += exact.Total
	}
	t.Logf("%d batches: Algorithm 2 %v, optimum %v, above the optimum on %d", seeds, heur, opt, above)
	if opt != optSum {
		t.Errorf("optima sum to %v, want %v: the batch set changed", opt, optSum)
	}
	if heur > heurCeil {
		t.Errorf("Algorithm 2's totals sum to %v, above the pinned ceiling %v", heur, heurCeil)
	}
}

// TestElasticRefusesTinyDeferBackoff runs an elastic simulation whose
// one grow can only poll: a 1×1×2 plant with one VM slot per node, full
// once its single request lands. At a DeferBackoff of 1e-300 the retry
// ladder's `t += DeferBackoff` never moves a tick, and at 1e-6 the grow
// polls 4e7 times in its 40-second map phase; both ran for as long as
// they were let. cloudsim.New must refuse both with an error naming
// DeferBackoff, well inside the timeout.
func TestElasticRefusesTinyDeferBackoff(t *testing.T) {
	for _, backoff := range []float64{1e-300, 1e-6} {
		tp, err := topology.Uniform(1, 1, 2, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix([][]int{{1}, {1}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := cloudsim.Config{Elastic: cloudsim.ElasticConfig{Enabled: true, GrowFactor: 0.5, MapFrac: 0.4, DeferBackoff: backoff}}
		done := make(chan error, 1)
		go func() {
			sim, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{}, cfg)
			if err != nil {
				done <- err
				return
			}
			_, err = sim.RunStream(model.NewSliceSource([]model.TimedRequest{{ID: 0, Vector: model.Request{2}, Arrival: 0, Hold: 100}}))
			done <- fmt.Errorf("run accepted and ended with %v", err)
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "DeferBackoff") {
				t.Errorf("DeferBackoff %g: got %v, want New's error naming DeferBackoff", backoff, err)
			}
		case <-time.After(8 * time.Second):
			t.Fatalf("DeferBackoff %g: still running after 8 s", backoff)
		}
	}
}

// TestElasticLateGrowExpires runs the one-grow plant of
// TestElasticRefusesTinyDeferBackoff at the default DeferBackoff of 5 s
// at times where that step rounds away: float spacing is 16 from 2^56
// on. In "poll" the {2} request arrives at 1e17 and its grow cannot
// fit; now + 5 is now, so a poll re-armed there would fire at the same
// instant forever. In "park" it arrives at 2^56 − 16, a {1} request
// queued behind it parks the grow one tick before 2^56, and a search
// for the ladder's last tick that kept adding 5 to 2^56 would never
// end. Each run must end within the timeout with that grow counted as
// Deferred (in "park" the queued request's own grow fits once the
// first request departs).
func TestElasticLateGrowExpires(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reqs  []model.TimedRequest
		grows int
	}{
		{"poll", []model.TimedRequest{{ID: 0, Vector: model.Request{2}, Arrival: 1e17, Hold: 100}}, 0},
		{"park", []model.TimedRequest{
			{ID: 0, Vector: model.Request{2}, Arrival: 0x1p56 - 16, Hold: 100},
			{ID: 1, Vector: model.Request{1}, Arrival: 0x1p56 - 16, Hold: 100},
		}, 1},
	} {
		tp, err := topology.Uniform(1, 1, 2, topology.DefaultDistances())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix([][]int{{1}, {1}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := cloudsim.Config{Elastic: cloudsim.ElasticConfig{Enabled: true, GrowFactor: 0.5, MapFrac: 0.4, DeferBackoff: 5}}
		type result struct {
			m   *cloudsim.Metrics
			err error
		}
		done := make(chan result, 1)
		go func() {
			sim, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{}, cfg)
			if err != nil {
				done <- result{nil, err}
				return
			}
			m, err := sim.RunStream(model.NewSliceSource(tc.reqs))
			done <- result{m, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%s: %v", tc.name, r.err)
			}
			if m := r.m; m.Deferred != 1 || m.Grows != tc.grows || m.Served != len(tc.reqs) {
				t.Errorf("%s: %d deferred, %d grown, %d served; want 1, %d, %d",
					tc.name, m.Deferred, m.Grows, m.Served, tc.grows, len(tc.reqs))
			}
		case <-time.After(8 * time.Second):
			t.Fatalf("%s: still running after 8 s", tc.name)
		}
	}
}
