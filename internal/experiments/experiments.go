// Package experiments reproduces the evaluation of the paper, one runner
// per table and figure. Each runner returns structured rows (so tests and
// benchmarks can assert on the shape of the result) plus a Render method
// producing terminal output in the spirit of the original figure.
//
// Simulation experiments (Figs. 2–6) use the paper's cloud: 3 racks × 10
// nodes, random per-node capacities over the three Table-I instance
// types, 20 random requests. Experimental-evaluation experiments
// (Figs. 7–8) replace the paper's UF HPC Hadoop deployment with the
// discrete-event MapReduce simulator (see DESIGN.md for the substitution
// argument) and run WordCount with 32 map tasks and 1 reduce task on four
// equal-capability virtual clusters of increasing distance.
package experiments

import (
	"fmt"
	"math/rand"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/dfs"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/netmodel"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/stats"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/vcluster"
	"affinitycluster/internal/workload"
)

// ---------------------------------------------------------------------------
// Tables I and II
// ---------------------------------------------------------------------------

// TableI renders the instance catalog of Table I.
func TableI() string {
	t := &stats.Table{Header: []string{"Instance type", "Memory (GB)", "CPU (compute unit)", "Storage (GB)", "Platform"}}
	for _, vt := range model.DefaultCatalog() {
		t.Add(vt.Name, vt.MemoryGB, vt.ComputeUnits, vt.StorageGB, vt.Platform)
	}
	return t.String()
}

// TableII renders the example capacity relationship of Table II.
func TableII() string {
	t := &stats.Table{Header: []string{"Rack", "Node", "VM type", "Number"}}
	t.Add("R1", "N1", "V1", 2)
	t.Add("R1", "N1", "V2", 3)
	t.Add("R1", "N2", "V1", 3)
	t.Add("R1", "N2", "V3", 1)
	t.Add("R2", "N3", "V2", 2)
	t.Add("R2", "N3", "V3", 1)
	return t.String()
}

// ---------------------------------------------------------------------------
// Simulation setup shared by Figs. 2–6
// ---------------------------------------------------------------------------

// SimSetup is a concrete instance of the paper's simulated cloud.
type SimSetup struct {
	Topo     *topology.Topology
	Caps     [][]int
	Requests []model.Request
}

// NewPaperSetup draws the Section V.A configuration: 3 racks × 10 nodes,
// random capacities, 20 random requests in the given scenario.
func NewPaperSetup(seed int64, sc workload.Scenario) (*SimSetup, error) {
	sim, err := workload.NewPaperSimulation(seed, sc)
	if err != nil {
		return nil, err
	}
	return &SimSetup{
		Topo:     topology.PaperSimPlant(),
		Caps:     sim.Capacities,
		Requests: sim.Requests,
	}, nil
}

// ---------------------------------------------------------------------------
// Fig. 2 — heuristic (best-center) distance vs random-center distance
// ---------------------------------------------------------------------------

// Fig2Row is one request's pair of distances: the allocation is the same,
// only the central node differs.
type Fig2Row struct {
	Request       int
	HeuristicDist float64 // DC with the minimizing central node
	RandomCtrDist float64 // same allocation, uniformly random central node
	CentralNode   int
	RandomCentral int
}

// Fig2Result is the figure's data plus totals.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 places the 20 requests sequentially with the online heuristic and
// evaluates each resulting cluster under its best central node versus a
// random one.
func Fig2(seed int64) (*Fig2Result, error) {
	setup, err := NewPaperSetup(seed, workload.Normal)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 100))
	res, err := placement.PlaceSequential(setup.Topo, setup.Caps, setup.Requests, &placement.OnlineHeuristic{})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for qi, alloc := range res.Allocs {
		if alloc == nil {
			continue
		}
		d, ctr := alloc.Distance(setup.Topo)
		hosts := alloc.HostingNodes()
		randCtr := hosts[rng.Intn(len(hosts))]
		out.Rows = append(out.Rows, Fig2Row{
			Request:       qi,
			HeuristicDist: d,
			RandomCtrDist: alloc.DistanceFrom(setup.Topo, randCtr),
			CentralNode:   int(ctr),
			RandomCentral: int(randCtr),
		})
	}
	return out, nil
}

// Render prints the figure as two aligned series.
func (r *Fig2Result) Render() string {
	best := &stats.Series{Name: "heuristic (best center)"}
	rnd := &stats.Series{Name: "random center"}
	for _, row := range r.Rows {
		best.Append(float64(row.Request), row.HeuristicDist)
		rnd.Append(float64(row.Request), row.RandomCtrDist)
	}
	return "Fig 2. Distance by central-node strategy (same allocations)\n" +
		stats.RenderSeries("request", best, rnd)
}

// ---------------------------------------------------------------------------
// Fig. 3 — central node variation across requests
// ---------------------------------------------------------------------------

// Fig3Row records the chosen central node of one request's cluster.
type Fig3Row struct {
	Request     int
	CentralNode int
}

// Fig3Result is the figure's data.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 reports the central node the heuristic settles on per request.
func Fig3(seed int64) (*Fig3Result, error) {
	setup, err := NewPaperSetup(seed, workload.Normal)
	if err != nil {
		return nil, err
	}
	res, err := placement.PlaceSequential(setup.Topo, setup.Caps, setup.Requests, &placement.OnlineHeuristic{})
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{}
	for qi, alloc := range res.Allocs {
		if alloc == nil {
			continue
		}
		_, ctr := alloc.Distance(setup.Topo)
		out.Rows = append(out.Rows, Fig3Row{Request: qi, CentralNode: int(ctr)})
	}
	return out, nil
}

// Render prints the central-node series.
func (r *Fig3Result) Render() string {
	s := &stats.Series{Name: "central node"}
	for _, row := range r.Rows {
		s.Append(float64(row.Request), float64(row.CentralNode))
	}
	return "Fig 3. Central node chosen per request\n" + stats.RenderSeries("request", s)
}

// ---------------------------------------------------------------------------
// Fig. 4 — distance of one allocation as the center sweeps every node
// ---------------------------------------------------------------------------

// Fig4Row is the distance of the fixed allocation under one candidate
// central node.
type Fig4Row struct {
	CentralNode int
	Distance    float64
}

// Fig4Result carries the sweep plus the optimum for reference.
type Fig4Result struct {
	Rows        []Fig4Row
	BestNode    int
	BestDist    float64
	RequestUsed model.Request
}

// Fig4 builds one cluster (the first request of the standard setup) and
// sweeps the central node over every hosting node.
func Fig4(seed int64) (*Fig4Result, error) {
	setup, err := NewPaperSetup(seed, workload.Normal)
	if err != nil {
		return nil, err
	}
	h := &placement.OnlineHeuristic{}
	alloc, err := h.Place(setup.Topo, setup.Caps, setup.Requests[0])
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{RequestUsed: setup.Requests[0]}
	best, bestK := -1.0, -1
	for _, k := range alloc.HostingNodes() {
		d := alloc.DistanceFrom(setup.Topo, k)
		out.Rows = append(out.Rows, Fig4Row{CentralNode: int(k), Distance: d})
		if best < 0 || d < best {
			best, bestK = d, int(k)
		}
	}
	out.BestDist, out.BestNode = best, bestK
	return out, nil
}

// Render prints the sweep as a bar chart.
func (r *Fig4Result) Render() string {
	labels := make([]string, len(r.Rows))
	values := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = fmt.Sprintf("node %d", row.CentralNode)
		values[i] = row.Distance
	}
	return fmt.Sprintf("Fig 4. Distance under different central nodes (request %v; best: node %d at %.1f)\n%s",
		r.RequestUsed, r.BestNode, r.BestDist, stats.BarChart(labels, values, 40))
}

// ---------------------------------------------------------------------------
// Figs. 5 and 6 — online heuristic vs global sub-optimization
// ---------------------------------------------------------------------------

// Fig56Row is one request's distance under each algorithm. An arm that
// could not place the request reports distance 0 and sets its Unplaced
// flag, which tells it apart from a request placed on one node.
type Fig56Row struct {
	Request        int
	OnlineDist     float64
	GlobalDist     float64
	OnlineUnplaced bool `json:",omitempty"`
	GlobalUnplaced bool `json:",omitempty"`
}

// Fig56Result carries per-request distances plus the totals the paper
// quotes (global decreases the sum by ~2% in the Normal scenario and ~12%
// in the Small one).
type Fig56Result struct {
	Scenario       workload.Scenario
	Rows           []Fig56Row
	OnlineTotal    float64
	GlobalTotal    float64
	ImprovementPct float64
}

// Fig5 runs the Normal scenario.
func Fig5(seed int64) (*Fig56Result, error) { return fig56(seed, workload.Normal) }

// Fig6 runs the Small scenario.
func Fig6(seed int64) (*Fig56Result, error) { return fig56(seed, workload.Small) }

func fig56(seed int64, sc workload.Scenario) (*Fig56Result, error) {
	setup, err := NewPaperSetup(seed, sc)
	if err != nil {
		return nil, err
	}
	online, err := placement.PlaceSequential(setup.Topo, setup.Caps, setup.Requests, &placement.OnlineHeuristic{})
	if err != nil {
		return nil, err
	}
	g := &placement.GlobalSubOpt{}
	global, err := g.PlaceBatch(setup.Topo, setup.Caps, setup.Requests)
	if err != nil {
		return nil, err
	}
	out := &Fig56Result{Scenario: sc}
	for qi := range setup.Requests {
		row := Fig56Row{Request: qi, OnlineUnplaced: online.Allocs[qi] == nil, GlobalUnplaced: global.Allocs[qi] == nil}
		if !row.OnlineUnplaced {
			row.OnlineDist, _ = online.Allocs[qi].Distance(setup.Topo)
		}
		if !row.GlobalUnplaced {
			row.GlobalDist, _ = global.Allocs[qi].Distance(setup.Topo)
		}
		out.Rows = append(out.Rows, row)
	}
	out.OnlineTotal = online.Total
	out.GlobalTotal = global.Total
	if out.OnlineTotal > 0 {
		out.ImprovementPct = (out.OnlineTotal - out.GlobalTotal) / out.OnlineTotal * 100
	}
	return out, nil
}

// Render prints both series and the totals, with "-" for a request an
// arm did not place.
func (r *Fig56Result) Render() string {
	fig := "Fig 5"
	if r.Scenario == workload.Small {
		fig = "Fig 6"
	}
	cell := func(d float64, unplaced bool) any {
		if unplaced {
			return "-"
		}
		return d
	}
	t := &stats.Table{Header: []string{"request", "online heuristic", "global sub-opt"}}
	for _, row := range r.Rows {
		t.Add(float64(row.Request), cell(row.OnlineDist, row.OnlineUnplaced), cell(row.GlobalDist, row.GlobalUnplaced))
	}
	return fmt.Sprintf("%s. Online vs global sub-optimization (%s scenario)\n%stotal: online %.1f, global %.1f (−%.1f%%)\n",
		fig, r.Scenario, t.String(), r.OnlineTotal, r.GlobalTotal, r.ImprovementPct)
}

// Fig56Averages runs Figs. 5 and 6 over n consecutive seeds and returns
// the mean improvement percentages (normal, small). A single draw of 20
// random requests is noisy; the averages are what EXPERIMENTS.md reports.
//
// Seeds run on the shared worker pool; each writes into its own slot and
// the sums are accumulated in seed order afterwards, so the result is
// bit-for-bit identical to a serial run for any worker count.
func Fig56Averages(seed int64, n int) (normalPct, smallPct float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("experiments: Fig56Averages needs a positive seed count")
	}
	normals := make([]float64, n)
	smalls := make([]float64, n)
	err = forEachIndex(n, func(i int) error {
		f5, err := Fig5(seed + int64(i))
		if err != nil {
			return err
		}
		f6, err := Fig6(seed + int64(i))
		if err != nil {
			return err
		}
		normals[i] = f5.ImprovementPct
		smalls[i] = f6.ImprovementPct
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		normalPct += normals[i]
		smallPct += smalls[i]
	}
	return normalPct / float64(n), smallPct / float64(n), nil
}

// ---------------------------------------------------------------------------
// Figs. 7 and 8 — WordCount on four clusters of increasing distance
// ---------------------------------------------------------------------------

// MRTopology is one of the four fixed virtual clusters of the experiment:
// same capability (8 VMs), different placements, hence different
// distances.
type MRTopology struct {
	Name  string
	Alloc affinity.Allocation
}

// Fig78Row is one cluster's measurements: the Fig. 7 runtime and the
// Fig. 8 locality counters.
type Fig78Row struct {
	Topology         string
	Distance         float64 // pairwise cluster affinity (the x-axis)
	RuntimeSec       float64
	MapsTotal        int
	NonDataLocalMaps int
	NonLocalShuffles int
	ShuffleRemoteMB  float64
}

// Fig78Result carries the four rows in distance order.
type Fig78Result struct {
	Rows []Fig78Row
}

// mrPlant is the four-rack, four-nodes-per-rack physical plant the
// experiment clusters are placed on.
func mrPlant() (*topology.Topology, error) {
	return topology.Uniform(1, 4, 4, topology.DefaultDistances())
}

// MRTopologies builds the four equal-capability clusters: 8 VMs, always
// two per node over four nodes (so per-node disk/NIC contention is
// identical), spread over one to four racks. With the experiment's
// distance configuration (same node 0, same rack 1, cross rack 2) their
// pairwise distances are 24, 36, 40, and 48 — like the paper's
// 10/14/16/20 series, the values are discrete because topology constrains
// what is achievable (the paper makes the same observation).
func MRTopologies() ([]MRTopology, error) {
	tp, err := mrPlant()
	if err != nil {
		return nil, err
	}
	n := tp.Nodes()
	mk := func(nodes ...int) affinity.Allocation {
		a := affinity.NewAllocation(n, 1)
		for _, node := range nodes {
			a[node][0] = 2
		}
		return a
	}
	return []MRTopology{
		// Four nodes of one rack: 6 cross-node pairs × 4 × d1 = 24.
		{Name: "dist-24", Alloc: mk(0, 1, 2, 3)},
		// Three nodes in rack 0, one in rack 1: 12×d1 + 12×d2 = 36.
		{Name: "dist-36", Alloc: mk(0, 1, 2, 4)},
		// Two nodes in each of two racks: 8×d1 + 16×d2 = 40.
		{Name: "dist-40", Alloc: mk(0, 1, 4, 5)},
		// One node in each of four racks: 24×d2 = 48.
		{Name: "dist-48", Alloc: mk(0, 4, 8, 12)},
	}, nil
}

// MRExperimentConfig sizes the WordCount run: the paper used 32 map tasks
// and 1 reduce task.
type MRExperimentConfig struct {
	InputMB float64
	Seed    int64
	Sim     mapreduce.SimConfig
	Net     netmodel.Config
	DFS     dfs.Config
	// SingleWriterInput loads the input through one VM instead of
	// balancing block ownership across the cluster. The resulting replica
	// skew starves some topologies of data locality — the mechanism
	// behind the paper's Fig. 7 anomaly, where the distance-14 cluster
	// ran slower than the distance-16 one because it suffered more
	// non-data-local maps (Fig. 8).
	SingleWriterInput bool
}

// DefaultMRExperimentConfig reproduces the paper's job shape: 32 × 64 MB
// blocks → 32 map tasks, 1 reducer.
func DefaultMRExperimentConfig(seed int64) MRExperimentConfig {
	d := dfs.DefaultConfig()
	d.Seed = seed
	// The testbed racks of the era were oversubscribed: the shared rack
	// uplink delivers less per-flow bandwidth than a node's access link,
	// which is what makes cross-rack shuffle traffic expensive.
	net := netmodel.DefaultConfig()
	net.RackUplinkMBps = 80
	return MRExperimentConfig{
		InputMB: 32 * 64,
		Seed:    seed,
		Sim:     mapreduce.DefaultSimConfig(),
		Net:     net,
		DFS:     d,
	}
}

// newMRSim assembles the simulator stack (engine, network, DFS with the
// pre-loaded input, MapReduce scheduler) for one cluster.
func newMRSim(tp *topology.Topology, cluster *vcluster.Cluster, cfg MRExperimentConfig) (*mapreduce.Simulator, error) {
	engine := eventsim.New()
	net, err := netmodel.NewFlowSim(engine, tp, cfg.Net)
	if err != nil {
		return nil, err
	}
	fsys, err := dfs.New(cluster, cfg.DFS)
	if err != nil {
		return nil, err
	}
	// The input pre-exists in the DFS — balanced across the cluster as a
	// MapReduce input normally is, or skewed through a single writer when
	// the anomaly variant is requested.
	if cfg.SingleWriterInput {
		if _, err := fsys.Write("input", cfg.InputMB, 0); err != nil {
			return nil, err
		}
	} else if _, err := fsys.WriteRotating("input", cfg.InputMB); err != nil {
		return nil, err
	}
	return mapreduce.New(engine, net, cluster, fsys, cfg.Sim)
}

// runMRClusterJob executes an arbitrary job on one cluster allocation.
func runMRClusterJob(name string, alloc affinity.Allocation, cfg MRExperimentConfig, job mapreduce.JobSpec) (*Fig78Row, error) {
	tp, err := mrPlant()
	if err != nil {
		return nil, err
	}
	cluster, err := vcluster.FromAllocation(tp, alloc)
	if err != nil {
		return nil, err
	}
	sim, err := newMRSim(tp, cluster, cfg)
	if err != nil {
		return nil, err
	}
	if job.InputFile != "input" {
		return nil, fmt.Errorf("experiments: job must read %q, got %q", "input", job.InputFile)
	}
	counters, err := sim.Run(job)
	if err != nil {
		return nil, err
	}
	return &Fig78Row{
		Topology:         name,
		Distance:         cluster.PairwiseDistance(),
		RuntimeSec:       counters.Runtime,
		MapsTotal:        counters.MapsTotal,
		NonDataLocalMaps: counters.NonDataLocalMaps(),
		NonLocalShuffles: counters.NonLocalShuffles(),
		ShuffleRemoteMB:  counters.ShuffleRemoteMB,
	}, nil
}

// Fig7and8 runs WordCount on the four clusters with a balanced input:
// runtime grows with cluster distance.
func Fig7and8(seed int64) (*Fig78Result, error) {
	return fig78(DefaultMRExperimentConfig(seed))
}

// Fig7and8Skewed is the anomaly variant: a single-writer input skews
// replica ownership, some clusters lose data locality, and — exactly as
// the paper observed between its distance-14 and distance-16 clusters —
// a cluster with a *shorter* distance can run *slower* because it suffers
// more non-data-local maps.
func Fig7and8Skewed(seed int64) (*Fig78Result, error) {
	cfg := DefaultMRExperimentConfig(seed)
	cfg.SingleWriterInput = true
	return fig78(cfg)
}

func fig78(cfg MRExperimentConfig) (*Fig78Result, error) {
	return RunJobAcrossTopologies(cfg, mapreduce.WordCount)
}

// RunJobAcrossTopologies runs any job profile (given as a constructor
// taking the input file name) on the four experiment clusters — the
// generalization of Fig 7/8 to the other benchmark workloads.
func RunJobAcrossTopologies(cfg MRExperimentConfig, mk func(inputFile string) mapreduce.JobSpec) (*Fig78Result, error) {
	tops, err := MRTopologies()
	if err != nil {
		return nil, err
	}
	out := &Fig78Result{Rows: make([]Fig78Row, len(tops))}
	err = forEachIndex(len(tops), func(i int) error {
		mt := tops[i]
		row, err := runMRClusterJob(mt.Name, mt.Alloc, cfg, mk("input"))
		if err != nil {
			return fmt.Errorf("experiments: cluster %s: %w", mt.Name, err)
		}
		out.Rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HasInversion reports whether some adjacent pair of rows (ascending
// distance) has the shorter-distance cluster running slower — the paper's
// Fig. 7 anomaly — and returns the first such pair.
func (r *Fig78Result) HasInversion() (bool, string, string) {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i-1].RuntimeSec > r.Rows[i].RuntimeSec {
			return true, r.Rows[i-1].Topology, r.Rows[i].Topology
		}
	}
	return false, "", ""
}

// RenderFig7 prints the runtime bar chart.
func (r *Fig78Result) RenderFig7() string {
	labels := make([]string, len(r.Rows))
	values := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		labels[i] = fmt.Sprintf("%s (D=%.0f)", row.Topology, row.Distance)
		values[i] = row.RuntimeSec
	}
	return "Fig 7. WordCount runtime by virtual cluster distance\n" + stats.BarChart(labels, values, 40)
}

// RenderFig8 prints the locality counters.
func (r *Fig78Result) RenderFig8() string {
	t := &stats.Table{Header: []string{"topology", "distance", "non-data-local maps", "non-local shuffles", "remote shuffle MB"}}
	for _, row := range r.Rows {
		t.Add(row.Topology, row.Distance, row.NonDataLocalMaps, row.NonLocalShuffles, row.ShuffleRemoteMB)
	}
	return "Fig 8. Data and shuffle locality by virtual cluster distance\n" + t.String()
}
