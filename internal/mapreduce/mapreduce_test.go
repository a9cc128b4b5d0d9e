package mapreduce

import (
	"strings"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/dfs"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/netmodel"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/vcluster"
)

// rig bundles a ready-to-run simulator over a given allocation.
type rig struct {
	engine  *eventsim.Engine
	sim     *Simulator
	cluster *vcluster.Cluster
	fs      *dfs.FS
}

func newRig(t *testing.T, tp *topology.Topology, alloc affinity.Allocation, inputMB float64, cfg SimConfig) *rig {
	t.Helper()
	c, err := vcluster.FromAllocation(tp, alloc)
	if err != nil {
		t.Fatal(err)
	}
	e := eventsim.New()
	net, err := netmodel.NewFlowSim(e, tp, netmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := dfs.New(c, dfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write("input", inputMB, 0); err != nil {
		t.Fatal(err)
	}
	sim, err := New(e, net, c, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{engine: e, sim: sim, cluster: c, fs: f}
}

func packedPlant(t *testing.T) (*topology.Topology, affinity.Allocation) {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	// 8 VMs packed onto 2 nodes of rack 0.
	a := affinity.NewAllocation(tp.Nodes(), 1)
	a[0][0] = 4
	a[1][0] = 4
	return tp, a
}

func spreadPlant(t *testing.T) (*topology.Topology, affinity.Allocation) {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	// 8 VMs spread 1-per-node over both racks.
	a := affinity.NewAllocation(tp.Nodes(), 1)
	for i := 0; i < 8; i++ {
		a[i][0] = 1
	}
	return tp, a
}

func TestConfigAndSpecValidation(t *testing.T) {
	if err := DefaultSimConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultSimConfig()
	bad.MapSlotsPerVM = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero map slots accepted")
	}
	bad = DefaultSimConfig()
	bad.ParallelCopies = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero parallel copies accepted")
	}
	bad = DefaultSimConfig()
	bad.HeartbeatSec = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero heartbeat accepted")
	}
	bad = DefaultSimConfig()
	bad.DelaySkips = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative delay skips accepted")
	}

	if err := (JobSpec{}).Validate(); err == nil {
		t.Error("empty job accepted")
	}
	if err := (JobSpec{InputFile: "x", NumReduces: -1}).Validate(); err == nil {
		t.Error("negative reducers accepted")
	}
	if err := (JobSpec{InputFile: "x", MapSelectivity: -1}).Validate(); err == nil {
		t.Error("negative selectivity accepted")
	}
	if err := (JobSpec{InputFile: "x", MapSecPerMB: -1}).Validate(); err == nil {
		t.Error("negative compute cost accepted")
	}
}

func TestWordCountRunsToCompletion(t *testing.T) {
	tp, a := packedPlant(t)
	r := newRig(t, tp, a, 512, DefaultSimConfig()) // 8 blocks
	counters, err := r.sim.Run(WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	if counters.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
	if counters.MapsTotal != 8 {
		t.Errorf("MapsTotal = %d, want 8", counters.MapsTotal)
	}
	if got := counters.MapsNodeLocal + counters.MapsRackLocal + counters.MapsRemote; got != 8 {
		t.Errorf("locality counts sum to %d", got)
	}
	if counters.ShuffleTransfers != 8 { // 8 maps × 1 reducer
		t.Errorf("ShuffleTransfers = %d, want 8", counters.ShuffleTransfers)
	}
	if counters.MapPhaseEnd <= 0 || counters.MapPhaseEnd > counters.Runtime {
		t.Errorf("MapPhaseEnd = %v, runtime %v", counters.MapPhaseEnd, counters.Runtime)
	}
	if counters.OutputMB <= 0 {
		t.Error("no output written")
	}
}

func TestMissingInputFile(t *testing.T) {
	tp, a := packedPlant(t)
	r := newRig(t, tp, a, 64, DefaultSimConfig())
	if _, err := r.sim.Run(WordCount("nope")); err == nil {
		t.Error("missing input accepted")
	}
}

func TestPackedClusterIsFullyLocal(t *testing.T) {
	// With every VM on two nodes and replication 3, every block has a
	// replica on both nodes with overwhelming probability; all maps should
	// be node-local and all shuffle flows should stay in the rack.
	tp, a := packedPlant(t)
	r := newRig(t, tp, a, 512, DefaultSimConfig())
	counters, err := r.sim.Run(WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	if counters.MapsRemote != 0 {
		t.Errorf("packed cluster has %d remote maps", counters.MapsRemote)
	}
	if counters.ShuffleRemote != 0 {
		t.Errorf("packed cluster has %d cross-rack shuffles", counters.ShuffleRemote)
	}
}

func TestPackedFasterThanSpread(t *testing.T) {
	// The paper's headline: a compact (short-distance) cluster runs
	// WordCount faster than a spread one of identical capability.
	tpP, aP := packedPlant(t)
	rigP := newRig(t, tpP, aP, 1024, DefaultSimConfig())
	cP, err := rigP.sim.Run(WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	tpS, aS := spreadPlant(t)
	rigS := newRig(t, tpS, aS, 1024, DefaultSimConfig())
	cS, err := rigS.sim.Run(WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	if cP.ClusterSpread >= cS.ClusterSpread {
		t.Fatalf("packed spread %v not below spread %v", cP.ClusterSpread, cS.ClusterSpread)
	}
	if cP.Runtime >= cS.Runtime {
		t.Errorf("packed runtime %v not below spread runtime %v", cP.Runtime, cS.Runtime)
	}
	if cP.NonDataLocalMaps() > cS.NonDataLocalMaps() {
		t.Errorf("packed has more non-local maps (%d) than spread (%d)",
			cP.NonDataLocalMaps(), cS.NonDataLocalMaps())
	}
}

func TestMapOnlyJob(t *testing.T) {
	tp, a := packedPlant(t)
	r := newRig(t, tp, a, 256, DefaultSimConfig())
	job := Grep("input")
	job.NumReduces = 0
	counters, err := r.sim.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if counters.ShuffleTransfers != 0 {
		t.Errorf("map-only job shuffled %d times", counters.ShuffleTransfers)
	}
	if counters.Runtime <= 0 {
		t.Error("non-positive runtime")
	}
}

func TestMultipleReducers(t *testing.T) {
	tp, a := spreadPlant(t)
	r := newRig(t, tp, a, 512, DefaultSimConfig())
	counters, err := r.sim.Run(TeraSort("input", 4))
	if err != nil {
		t.Fatal(err)
	}
	if counters.ShuffleTransfers != 8*4 {
		t.Errorf("ShuffleTransfers = %d, want 32", counters.ShuffleTransfers)
	}
	if counters.ShuffleEnd < counters.MapPhaseEnd {
		t.Errorf("shuffle ended (%v) before maps (%v)", counters.ShuffleEnd, counters.MapPhaseEnd)
	}
}

func TestMoreReducersThanSlotsCompletes(t *testing.T) {
	// 8 VMs × 1 reduce slot but 12 reducers: the overflow must wait for
	// slots and the job must still finish.
	tp, a := spreadPlant(t)
	r := newRig(t, tp, a, 256, DefaultSimConfig())
	counters, err := r.sim.Run(TeraSort("input", 12))
	if err != nil {
		t.Fatal(err)
	}
	if counters.ShuffleTransfers != 4*12 {
		t.Errorf("ShuffleTransfers = %d, want 48", counters.ShuffleTransfers)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Counters {
		tp, a := spreadPlant(t)
		r := newRig(t, tp, a, 512, DefaultSimConfig())
		c, err := r.sim.Run(WordCount("input"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := run(), run()
	if c1.Runtime != c2.Runtime || c1.MapsNodeLocal != c2.MapsNodeLocal ||
		c1.ShuffleRemoteMB != c2.ShuffleRemoteMB {
		t.Errorf("non-deterministic runs: %+v vs %+v", c1, c2)
	}
}

func TestDelaySchedulingImprovesLocality(t *testing.T) {
	// A cluster with data concentrated on a few nodes: greedy scheduling
	// launches remote maps immediately; delay scheduling waits for local
	// slots and must not produce worse locality.
	tp, err := topology.Uniform(1, 2, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	a := affinity.NewAllocation(tp.Nodes(), 1)
	for i := 0; i < 8; i++ {
		a[i][0] = 1
	}
	runWith := func(skips int) *Counters {
		cfg := DefaultSimConfig()
		cfg.DelaySkips = skips
		r := newRig(t, tp, a, 1024, cfg)
		c, err := r.sim.Run(WordCount("input"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	eager := runWith(0)
	delayed := runWith(3)
	if delayed.NonDataLocalMaps() > eager.NonDataLocalMaps() {
		t.Errorf("delay scheduling worsened locality: %d vs %d",
			delayed.NonDataLocalMaps(), eager.NonDataLocalMaps())
	}
}

func TestCountersDerivedMetrics(t *testing.T) {
	c := Counters{MapsRackLocal: 2, MapsRemote: 3, ShuffleRackLocal: 1, ShuffleRemote: 4}
	if c.NonDataLocalMaps() != 5 {
		t.Errorf("NonDataLocalMaps = %d", c.NonDataLocalMaps())
	}
	if c.NonLocalShuffles() != 5 {
		t.Errorf("NonLocalShuffles = %d", c.NonLocalShuffles())
	}
}

func TestConcurrentJobsContend(t *testing.T) {
	// Two WordCounts launched together on one cluster share slots? No —
	// separate simulators over the same cluster share only the NETWORK
	// (one engine, one FlowSim): co-running jobs must each be slower than
	// a lone run.
	tp, a := spreadPlant(t)
	cluster, err := vcluster.FromAllocation(tp, a)
	if err != nil {
		t.Fatal(err)
	}
	mkSim := func(engine *eventsim.Engine, net *netmodel.FlowSim, file string) *Simulator {
		f, err := dfs.New(cluster, dfs.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(file, 512, 0); err != nil {
			t.Fatal(err)
		}
		sim, err := New(engine, net, cluster, f, DefaultSimConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	// Lone run.
	e1 := eventsim.New()
	n1, err := netmodel.NewFlowSim(e1, tp, netmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lone, err := mkSim(e1, n1, "input").Run(TeraSort("input", 2))
	if err != nil {
		t.Fatal(err)
	}
	// Two concurrent runs sharing one engine+network.
	e2 := eventsim.New()
	n2, err := netmodel.NewFlowSim(e2, tp, netmodel.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	simA := mkSim(e2, n2, "inputA")
	simB := mkSim(e2, n2, "inputB")
	hA, err := simA.Launch(TeraSort("inputA", 2))
	if err != nil {
		t.Fatal(err)
	}
	hB, err := simB.Launch(TeraSort("inputB", 2))
	if err != nil {
		t.Fatal(err)
	}
	e2.Run()
	cA, err := hA.Counters()
	if err != nil {
		t.Fatal(err)
	}
	cB, err := hB.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if cA.Runtime <= lone.Runtime || cB.Runtime <= lone.Runtime {
		t.Errorf("co-running jobs not slower: lone %.2f, A %.2f, B %.2f",
			lone.Runtime, cA.Runtime, cB.Runtime)
	}
}

func TestJobHandleBeforeCompletion(t *testing.T) {
	tp, a := packedPlant(t)
	r := newRig(t, tp, a, 128, DefaultSimConfig())
	h, err := r.sim.Launch(WordCount("input"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Done() {
		t.Error("job done before the engine ran")
	}
	if _, err := h.Counters(); err == nil {
		t.Error("Counters available before completion")
	}
	r.engine.Run()
	if !h.Done() {
		t.Fatal("job not done after drain")
	}
	c, err := h.Counters()
	if err != nil || c.Runtime <= 0 {
		t.Fatalf("counters: %v, %v", c, err)
	}
}

func TestWorkloadProfiles(t *testing.T) {
	for _, spec := range []JobSpec{
		WordCount("f"), TeraSort("f", 2), Grep("f"), Join("f", 2),
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if spec.InputFile != "f" {
			t.Errorf("%s: input file %q", spec.Name, spec.InputFile)
		}
	}
	if !strings.Contains(TeraSort("f", 2).Name, "terasort") {
		t.Error("TeraSort name wrong")
	}
}

func TestShuffleHeavyJobSuffersMoreFromSpread(t *testing.T) {
	// Both workloads must pay for spreading the cluster, and the
	// shuffle-heavy one must pay overwhelmingly more cross-rack traffic.
	// (Comparing raw runtimes across workloads is confounded by reducer
	// placement: a packed cluster concentrates reducers on few nodes,
	// creating its own incast bottleneck.)
	measure := func(spec func() JobSpec) (deltaSec, remoteMB float64) {
		tpP, aP := packedPlant(t)
		rigP := newRig(t, tpP, aP, 512, DefaultSimConfig())
		cP, err := rigP.sim.Run(spec())
		if err != nil {
			t.Fatal(err)
		}
		tpS, aS := spreadPlant(t)
		rigS := newRig(t, tpS, aS, 512, DefaultSimConfig())
		cS, err := rigS.sim.Run(spec())
		if err != nil {
			t.Fatal(err)
		}
		return cS.Runtime - cP.Runtime, cS.ShuffleRemoteMB
	}
	sortDelta, sortRemote := measure(func() JobSpec { return TeraSort("input", 4) })
	grepDelta, grepRemote := measure(func() JobSpec { return Grep("input") })
	if sortDelta <= 0 || grepDelta <= 0 {
		t.Errorf("spreading should cost both workloads: terasort %.2fs, grep %.2fs", sortDelta, grepDelta)
	}
	if sortRemote < grepRemote*10 {
		t.Errorf("terasort cross-rack shuffle (%.1f MB) not dominating grep's (%.1f MB)", sortRemote, grepRemote)
	}
}
