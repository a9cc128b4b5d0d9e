// Package mapreduce simulates the execution of MapReduce jobs on a
// virtual cluster — the substrate for reproducing the paper's experimental
// evaluation (Figs. 7 and 8), which ran Hadoop WordCount on virtual
// clusters of varying affinity.
//
// The simulator models the three data-movement phases the paper
// enumerates in Section I:
//
//  1. DFS → map: each map task reads one input block from its nearest
//     replica (node-local reads cost a local copy; rack-local and remote
//     reads become network flows).
//  2. Map → reduce (shuffle): each finished map's intermediate output is
//     partitioned across reducers and fetched over the network, with
//     bounded fetch parallelism per reducer.
//  3. Reduce → DFS: reducer output is written back with rack-aware
//     replication, generating replication flows.
//
// Task scheduling mirrors Hadoop's slot-based JobTracker: a fixed number
// of map/reduce slots per VM, heartbeat-driven assignment, and
// locality-preferring map placement (node-local, then rack-local, then
// remote) with optional delay scheduling.
//
// Everything runs on the deterministic discrete-event engine of package
// eventsim with network contention from package netmodel, so two runs with
// the same seed produce identical timings.
package mapreduce

import (
	"errors"
	"fmt"

	"affinitycluster/internal/dfs"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/netmodel"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/vcluster"
)

// SimConfig fixes the cluster-side execution parameters.
type SimConfig struct {
	// MapSlotsPerVM and ReduceSlotsPerVM bound per-VM task concurrency
	// (Hadoop-era defaults: 2 and 1).
	MapSlotsPerVM    int
	ReduceSlotsPerVM int
	// ParallelCopies bounds concurrent shuffle fetches per reducer
	// (Hadoop default 5).
	ParallelCopies int
	// HeartbeatSec is the scheduler heartbeat driving slot assignment.
	HeartbeatSec float64
	// DelaySkips enables delay scheduling: a VM with no node-local task
	// passes up to DelaySkips heartbeats before accepting a non-local
	// task. 0 disables the delay (plain locality preference).
	DelaySkips int
}

// DefaultSimConfig mirrors a small 2012 Hadoop deployment.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		MapSlotsPerVM:    2,
		ReduceSlotsPerVM: 1,
		ParallelCopies:   5,
		HeartbeatSec:     0.5,
	}
}

// Validate rejects degenerate configurations.
func (c SimConfig) Validate() error {
	if c.MapSlotsPerVM <= 0 || c.ReduceSlotsPerVM < 0 {
		return fmt.Errorf("mapreduce: bad slot counts %+v", c)
	}
	if c.ParallelCopies <= 0 {
		return fmt.Errorf("mapreduce: ParallelCopies must be positive")
	}
	if c.HeartbeatSec <= 0 {
		return fmt.Errorf("mapreduce: HeartbeatSec must be positive")
	}
	if c.DelaySkips < 0 {
		return fmt.Errorf("mapreduce: negative DelaySkips")
	}
	return nil
}

// JobSpec describes one MapReduce job over a file already in the DFS.
type JobSpec struct {
	Name string
	// InputFile names the DFS file whose blocks become map inputs (one
	// map task per block, Hadoop's default split).
	InputFile string
	// NumReduces is the reducer count (the paper's experiment uses 1).
	NumReduces int
	// MapSelectivity scales intermediate output: a map over an S-MB block
	// emits S×MapSelectivity MB into the shuffle.
	MapSelectivity float64
	// ReduceSelectivity scales final output relative to shuffle input.
	ReduceSelectivity float64
	// MapSecPerMB and ReduceSecPerMB are per-MB CPU costs.
	MapSecPerMB    float64
	ReduceSecPerMB float64
}

// Validate rejects malformed jobs.
func (j JobSpec) Validate() error {
	if j.InputFile == "" {
		return errors.New("mapreduce: job has no input file")
	}
	if j.NumReduces < 0 {
		return fmt.Errorf("mapreduce: negative reducer count %d", j.NumReduces)
	}
	if j.MapSelectivity < 0 || j.ReduceSelectivity < 0 {
		return fmt.Errorf("mapreduce: negative selectivity")
	}
	if j.MapSecPerMB < 0 || j.ReduceSecPerMB < 0 {
		return fmt.Errorf("mapreduce: negative compute cost")
	}
	return nil
}

// Counters aggregates one job run — the measurements behind Figs. 7/8.
type Counters struct {
	Runtime float64 // job makespan, simulated seconds

	MapsTotal     int
	MapsNodeLocal int // data-local map tasks
	MapsRackLocal int
	MapsRemote    int

	ShuffleTransfers int
	ShuffleNodeLocal int // shuffle flows that stayed on one node
	ShuffleRackLocal int
	ShuffleRemote    int
	ShuffleMB        float64
	ShuffleRemoteMB  float64 // MB that crossed racks during shuffle

	MapPhaseEnd   float64 // time the last map finished
	ShuffleEnd    float64 // time the last shuffle fetch landed
	OutputMB      float64
	ClusterSpread float64 // pairwise-affinity of the cluster (Fig 7 x-axis)
}

// NonDataLocalMaps is the paper's Fig. 8 counter: maps that had to read
// their input over the network.
func (c *Counters) NonDataLocalMaps() int { return c.MapsRackLocal + c.MapsRemote }

// NonLocalShuffles is the paper's Fig. 8 shuffle counter: shuffle
// transfers that left the map task's node.
func (c *Counters) NonLocalShuffles() int { return c.ShuffleRackLocal + c.ShuffleRemote }

// taskState tracks one map task.
type taskState int

const (
	taskPending taskState = iota
	taskRunning
	taskDone
)

type mapTask struct {
	id     int
	block  dfs.BlockID
	sizeMB float64
	state  taskState
	vm     vcluster.VMID // VM the task runs on once launched
}

type reducer struct {
	id        int
	vm        vcluster.VMID
	placed    bool
	fetched   int     // map outputs landed
	fetchingN int     // in-flight fetches
	pending   []int   // finished maps not yet fetched
	inputMB   float64 // accumulated shuffle bytes
	computing bool
	done      bool
}

// Simulator executes jobs on one virtual cluster.
type Simulator struct {
	engine  *eventsim.Engine
	net     *netmodel.FlowSim
	cluster *vcluster.Cluster
	fs      *dfs.FS
	cfg     SimConfig

	obsReg  *obs.Registry // nil unless Instrument was called
	metrics mrMetrics
}

// mrMetrics are the resolved obs handles; the zero value no-ops.
type mrMetrics struct {
	jobs            *obs.Counter
	mapsTotal       *obs.Counter
	mapsNodeLocal   *obs.Counter
	mapsRackLocal   *obs.Counter
	mapsRemote      *obs.Counter
	shuffleFlows    *obs.Counter
	shuffleRemote   *obs.Counter
	jobRuntime      *obs.Histogram
	mapPhaseSeconds *obs.Histogram
	shuffleMB       *obs.Histogram
}

// Instrument resolves the simulator's metric handles against a registry
// and enables phase-boundary trace events (timestamps are the engine's
// virtual time, so instrumented runs stay deterministic). A nil registry
// leaves everything a no-op.
func (s *Simulator) Instrument(r *obs.Registry) {
	s.obsReg = r
	if r == nil {
		s.metrics = mrMetrics{}
		return
	}
	s.metrics = mrMetrics{
		jobs:            r.Counter("mapreduce.jobs"),
		mapsTotal:       r.Counter("mapreduce.maps_total"),
		mapsNodeLocal:   r.Counter("mapreduce.maps_node_local"),
		mapsRackLocal:   r.Counter("mapreduce.maps_rack_local"),
		mapsRemote:      r.Counter("mapreduce.maps_remote"),
		shuffleFlows:    r.Counter("mapreduce.shuffle_transfers"),
		shuffleRemote:   r.Counter("mapreduce.shuffle_remote"),
		jobRuntime:      r.Histogram("mapreduce.job_runtime_seconds", 0, 3600, 36),
		mapPhaseSeconds: r.Histogram("mapreduce.map_phase_seconds", 0, 3600, 36),
		shuffleMB:       r.Histogram("mapreduce.shuffle_mb", 0, 16384, 16),
	}
}

// New wires a simulator. The caller owns the engine so multiple
// simulators (or background traffic) can share virtual time.
func New(e *eventsim.Engine, net *netmodel.FlowSim, c *vcluster.Cluster, f *dfs.FS, cfg SimConfig) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{engine: e, net: net, cluster: c, fs: f, cfg: cfg}, nil
}

// run is the per-job mutable state.
type run struct {
	sim      *Simulator
	job      JobSpec
	tasks    []*mapTask
	reducers []*reducer
	counters Counters

	mapFreeSlots    []int // per VM
	reduceFreeSlots []int
	delaySkips      []int // per VM, consecutive heartbeats without local work

	mapsDone    int
	reducersDue int
	startedAt   float64
	finished    bool
	finishedAt  float64
}

// JobHandle tracks a launched job; its Counters become valid once Done
// reports true (after the engine has drained or run past completion).
type JobHandle struct {
	run *run
}

// Done reports whether the job has completed.
func (h *JobHandle) Done() bool { return h.run.finished }

// Counters returns the job's counters; an error before completion.
func (h *JobHandle) Counters() (*Counters, error) {
	if !h.run.finished {
		return nil, fmt.Errorf("mapreduce: job %q not finished", h.run.job.Name)
	}
	c := h.run.counters
	return &c, nil
}

// Run executes the job to completion and returns its counters.
func (s *Simulator) Run(job JobSpec) (*Counters, error) {
	h, err := s.Launch(job)
	if err != nil {
		return nil, err
	}
	s.engine.Run()
	if !h.Done() {
		return nil, fmt.Errorf("mapreduce: job %q did not complete (scheduler stall?)", job.Name)
	}
	return h.Counters()
}

// Launch schedules a job on the shared engine without draining it, so
// multiple jobs (on the same or different simulators sharing one engine)
// can contend for the network concurrently. Call engine.Run() — or
// Simulator.Run for the last job — to execute, then read each handle's
// Counters.
func (s *Simulator) Launch(job JobSpec) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	blocks, err := s.fs.Blocks(job.InputFile)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("mapreduce: input file %q has no blocks", job.InputFile)
	}
	r := &run{sim: s, job: job}
	for i, b := range blocks {
		blk, err := s.fs.Block(b)
		if err != nil {
			return nil, err
		}
		r.tasks = append(r.tasks, &mapTask{id: i, block: b, sizeMB: blk.SizeMB})
	}
	r.counters.MapsTotal = len(r.tasks)
	r.counters.ClusterSpread = s.cluster.PairwiseDistance()
	n := s.cluster.Size()
	r.mapFreeSlots = make([]int, n)
	r.reduceFreeSlots = make([]int, n)
	r.delaySkips = make([]int, n)
	for v := 0; v < n; v++ {
		r.mapFreeSlots[v] = s.cfg.MapSlotsPerVM
		r.reduceFreeSlots[v] = s.cfg.ReduceSlotsPerVM
	}
	for q := 0; q < job.NumReduces; q++ {
		r.reducers = append(r.reducers, &reducer{id: q})
	}
	r.reducersDue = job.NumReduces
	r.startedAt = s.engine.Now()
	s.obsReg.Emit("mr_job_start", r.startedAt,
		obs.F("job", job.Name), obs.F("maps", len(r.tasks)), obs.F("reduces", job.NumReduces))
	r.placeReducers()
	r.schedule()
	r.heartbeat()
	return &JobHandle{run: r}, nil
}

// heartbeat periodically retries scheduling until the job completes; this
// is what makes delay scheduling and slot churn live.
func (r *run) heartbeat() {
	if r.finished {
		return
	}
	_, _ = r.sim.engine.After(r.sim.cfg.HeartbeatSec, func(float64) {
		r.schedule()
		r.heartbeat()
	})
}

// placeReducers assigns reducers round-robin over VMs with free reduce
// slots; overflow reducers wait for slots.
func (r *run) placeReducers() {
	n := r.sim.cluster.Size()
	v := 0
	for _, red := range r.reducers {
		if red.placed {
			continue
		}
		for probe := 0; probe < n; probe++ {
			cand := (v + probe) % n
			if r.reduceFreeSlots[cand] > 0 {
				r.reduceFreeSlots[cand]--
				red.vm = vcluster.VMID(cand)
				red.placed = true
				v = cand + 1
				// A late-placed reducer may already have finished maps
				// queued up; start fetching them immediately.
				r.pumpFetches(red)
				break
			}
		}
	}
}

// schedule fills free map slots with pending tasks, preferring node-local
// then rack-local then remote inputs; delay scheduling optionally defers
// non-local assignments for a few heartbeats.
func (r *run) schedule() {
	if r.finished {
		return
	}
	r.placeReducers()
	n := r.sim.cluster.Size()
	for v := 0; v < n; v++ {
		for r.mapFreeSlots[v] > 0 {
			task, loc := r.pickTask(vcluster.VMID(v))
			if task == nil {
				break
			}
			if loc != dfs.NodeLocal && r.sim.cfg.DelaySkips > 0 && r.delaySkips[v] < r.sim.cfg.DelaySkips && r.anyPendingNodeLocalSomewhere() {
				// Pass this heartbeat hoping a local slot frees elsewhere.
				r.delaySkips[v]++
				break
			}
			r.delaySkips[v] = 0
			r.launchMap(task, vcluster.VMID(v), loc)
		}
	}
}

// anyPendingNodeLocalSomewhere reports whether some pending task would be
// node-local on some VM (the slot may free later) — the condition under
// which delaying a non-local assignment can pay off.
func (r *run) anyPendingNodeLocalSomewhere() bool {
	for _, t := range r.tasks {
		if t.state != taskPending {
			continue
		}
		if len(r.sim.fs.VMsWithReplica(t.block)) > 0 {
			return true
		}
	}
	return false
}

// pickTask returns the best pending task for a VM and its locality.
func (r *run) pickTask(vm vcluster.VMID) (*mapTask, dfs.Locality) {
	var best *mapTask
	bestLoc := dfs.Remote + 1
	for _, t := range r.tasks {
		if t.state != taskPending {
			continue
		}
		_, loc, err := r.sim.fs.NearestReplica(t.block, vm)
		if err != nil {
			continue
		}
		if loc < bestLoc {
			best, bestLoc = t, loc
			if loc == dfs.NodeLocal {
				break
			}
		}
	}
	if best == nil {
		return nil, dfs.Remote
	}
	return best, bestLoc
}

// launchMap runs a task on vm, counting its locality class: the DFS
// read, then the compute, then completion.
func (r *run) launchMap(t *mapTask, vm vcluster.VMID, loc dfs.Locality) {
	t.state = taskRunning
	t.vm = vm
	switch loc {
	case dfs.NodeLocal:
		r.counters.MapsNodeLocal++
	case dfs.RackLocal:
		r.counters.MapsRackLocal++
	default:
		r.counters.MapsRemote++
	}
	r.mapFreeSlots[vm]--
	replica, _, err := r.sim.fs.NearestReplica(t.block, vm)
	if err != nil {
		return
	}
	src := r.sim.cluster.NodeOf(replica)
	dst := r.sim.cluster.NodeOf(vm)
	_, _ = r.sim.net.StartFlow(src, dst, t.sizeMB, func(float64) {
		compute := t.sizeMB * r.job.MapSecPerMB
		_, _ = r.sim.engine.After(compute, func(now float64) { r.mapFinished(t, now) })
	})
}

// mapFinished frees the task's slot and offers its output to every
// reducer.
func (r *run) mapFinished(t *mapTask, now float64) {
	r.mapFreeSlots[t.vm]++
	t.state = taskDone
	r.mapsDone++
	if r.mapsDone == len(r.tasks) {
		r.counters.MapPhaseEnd = now
		r.sim.obsReg.Emit("mr_map_phase_end", now,
			obs.F("job", r.job.Name), obs.F("non_local_maps", r.counters.NonDataLocalMaps()))
	}
	for _, red := range r.reducers {
		red.pending = append(red.pending, t.id)
		r.pumpFetches(red)
	}
	if r.job.NumReduces == 0 && r.mapsDone == len(r.tasks) {
		r.finish(now)
		return
	}
	r.schedule()
}

// pumpFetches keeps up to ParallelCopies shuffle fetches in flight for a
// reducer.
func (r *run) pumpFetches(red *reducer) {
	if !red.placed || red.done || red.computing {
		return
	}
	for red.fetchingN < r.sim.cfg.ParallelCopies && len(red.pending) > 0 {
		taskID := red.pending[0]
		red.pending = red.pending[1:]
		t := r.tasks[taskID]
		part := t.sizeMB * r.job.MapSelectivity / float64(r.job.NumReduces)
		src := r.sim.cluster.NodeOf(t.vm)
		dst := r.sim.cluster.NodeOf(red.vm)
		r.counters.ShuffleTransfers++
		r.counters.ShuffleMB += part
		switch {
		case src == dst:
			r.counters.ShuffleNodeLocal++
		case r.sim.cluster.Topology().SameRack(src, dst):
			r.counters.ShuffleRackLocal++
		default:
			r.counters.ShuffleRemote++
			r.counters.ShuffleRemoteMB += part
		}
		red.fetchingN++
		_, _ = r.sim.net.StartFlow(src, dst, part, func(now float64) {
			red.fetchingN--
			red.fetched++
			red.inputMB += part
			if now > r.counters.ShuffleEnd {
				r.counters.ShuffleEnd = now
			}
			r.pumpFetches(red)
			r.maybeReduce(red)
		})
	}
}

// maybeReduce starts the reduce computation once every map output landed.
func (r *run) maybeReduce(red *reducer) {
	if red.computing || red.done || red.fetched < len(r.tasks) {
		return
	}
	red.computing = true
	compute := red.inputMB * r.job.ReduceSecPerMB
	_, _ = r.sim.engine.After(compute, func(now float64) { r.writeOutput(red, now) })
}

// writeOutput writes the reducer's result back to the DFS: the metadata
// write is immediate, and replication traffic to each non-local replica
// becomes network flows; the reducer completes when the last replica
// lands.
func (r *run) writeOutput(red *reducer, now float64) {
	outMB := red.inputMB * r.job.ReduceSelectivity
	r.counters.OutputMB += outMB
	if outMB <= 0 {
		r.reducerDone(red, now)
		return
	}
	name := fmt.Sprintf("%s.out.%d", r.job.Name, red.id)
	ids, err := r.sim.fs.Write(name, outMB, red.vm)
	if err != nil {
		// Duplicate output name across runs is a caller bug; surface it by
		// stalling would be worse, so finish without replication traffic.
		r.reducerDone(red, now)
		return
	}
	flights := 0
	landed := func(nowAt float64) {
		flights--
		if flights == 0 {
			r.reducerDone(red, nowAt)
		}
	}
	for _, id := range ids {
		blk, err := r.sim.fs.Block(id)
		if err != nil {
			continue
		}
		for _, rep := range blk.Replicas {
			if rep == red.vm {
				continue // local copy is free
			}
			flights++
			_, _ = r.sim.net.StartFlow(r.sim.cluster.NodeOf(red.vm), r.sim.cluster.NodeOf(rep), blk.SizeMB, landed)
		}
	}
	if flights == 0 {
		r.reducerDone(red, now)
	}
}

func (r *run) reducerDone(red *reducer, now float64) {
	if red.done {
		return
	}
	red.done = true
	r.reduceFreeSlots[red.vm]++
	r.reducersDue--
	if r.reducersDue == 0 && r.mapsDone == len(r.tasks) {
		r.finish(now)
	}
}

func (r *run) finish(now float64) {
	if r.finished {
		return
	}
	r.finished = true
	r.finishedAt = now
	r.counters.Runtime = now - r.startedAt
	r.flushObs(now)
}

// flushObs records the finished job's counters into the simulator's obs
// registry (no-op when uninstrumented). Phase timings are virtual-time
// durations, never wall-clock.
func (r *run) flushObs(now float64) {
	m := &r.sim.metrics
	c := &r.counters
	m.jobs.Inc()
	m.mapsTotal.Add(int64(c.MapsTotal))
	m.mapsNodeLocal.Add(int64(c.MapsNodeLocal))
	m.mapsRackLocal.Add(int64(c.MapsRackLocal))
	m.mapsRemote.Add(int64(c.MapsRemote))
	m.shuffleFlows.Add(int64(c.ShuffleTransfers))
	m.shuffleRemote.Add(int64(c.ShuffleRemote))
	m.jobRuntime.Observe(c.Runtime)
	m.mapPhaseSeconds.Observe(c.MapPhaseEnd - r.startedAt)
	m.shuffleMB.Observe(c.ShuffleMB)
	r.sim.obsReg.Emit("mr_job_done", now,
		obs.F("job", r.job.Name),
		obs.F("runtime", c.Runtime),
		obs.F("map_phase_end", c.MapPhaseEnd),
		obs.F("shuffle_end", c.ShuffleEnd),
		obs.F("shuffle_mb", c.ShuffleMB),
		obs.F("remote_shuffle_mb", c.ShuffleRemoteMB))
}
