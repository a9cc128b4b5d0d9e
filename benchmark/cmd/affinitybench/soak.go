package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/experiments"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// soakParams sizes one soak scenario: the repo's soak configuration with
// the request count of one rep, plus the resize policy of soak-elastic
// (the zero value for soak).
type soakParams struct {
	cfg     experiments.SoakConfig
	elastic cloudsim.ElasticConfig
}

func newSoakParams(requests int, elastic bool) soakParams {
	cfg := experiments.DefaultSoakConfig()
	cfg.Requests = requests
	p := soakParams{cfg: cfg}
	if elastic {
		p.elastic = cloudsim.ElasticConfig{
			Enabled:      true,
			GrowFactor:   0.5,
			MapFrac:      mapreduce.WordCount("input").PhaseSplit(),
			MinPayoff:    1,
			DeferBackoff: 5,
		}
	}
	return p
}

// reference replays plant 0 (the run seed) once more, for the
// determinism gate. The soak goes through the repository's own
// experiments.Soak, so the benchmark's soak cannot drift from the repo's
// scenario; soak-elastic, which experiments.Soak cannot express, goes
// through the benchmark's own build again.
func (p soakParams) reference(seed int64) (*cloudsim.Metrics, error) {
	if !p.elastic.Enabled {
		r, err := experiments.Soak(seed, p.cfg)
		if err != nil {
			return nil, err
		}
		return r.Cloud, nil
	}
	rep, err := runSoakRep(seed, p, io.Discard)
	if err != nil {
		return nil, err
	}
	return rep.m, nil
}

// soakPlant is one freshly built soak scenario, ready to replay.
type soakPlant struct {
	tp   *topology.Topology
	caps [][]int
	reg  *obs.Registry
	sim  *cloudsim.Simulator
	src  *pullSource
}

// buildSoak builds the scenario exactly as experiments.Soak does — the
// capacity seed is seed, the workload seed seed+1 and the fault seed
// seed+2 (TestSoakParity pins the equivalence). A nil sink runs with obs
// off: no registry at all.
func buildSoak(seed int64, p soakParams, sink io.Writer) (*soakPlant, error) {
	cfg := p.cfg
	tp, err := topology.Uniform(cfg.Clouds, cfg.Racks, cfg.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewOpenLoop(seed+1, cfg.Requests, cfg.Workload)
	if err != nil {
		return nil, err
	}
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), cfg.Workload.Types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	fc := cfg.Faults
	if fc.Enabled() && fc.Horizon == 0 {
		fc.Horizon = float64(cfg.Requests) / cfg.Workload.BaseRate
	}
	var reg *obs.Registry
	if sink != nil {
		reg = obs.NewStreamingRegistry(sink)
	}
	sim, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:    queue.FIFO,
		Faults:    fc,
		FaultSeed: seed + 2,
		Recovery:  cfg.Recovery,
		Sketch:    cfg.Sketch,
		Elastic:   p.elastic,
		Obs:       reg,
	})
	if err != nil {
		return nil, err
	}
	return &soakPlant{tp: tp, caps: caps, reg: reg, sim: sim, src: &pullSource{src: gen, heapEvery: 4096}}, nil
}

// run replays the plant's stream and checks request conservation.
func (pl *soakPlant) run(requests int) (*cloudsim.Metrics, error) {
	m, err := pl.sim.RunStream(pl.src)
	if err != nil {
		return nil, err
	}
	if err := pl.reg.SinkErr(); err != nil {
		return nil, fmt.Errorf("obs sink: %w", err)
	}
	if got := m.Served + m.Rejected + m.Unplaced; got != requests {
		return nil, fmt.Errorf("conservation: served %d + rejected %d + unplaced %d = %d, want %d requests",
			m.Served, m.Rejected, m.Unplaced, got, requests)
	}
	return m, nil
}

// pullSource wraps the workload generator. It samples the live heap
// every heapEvery pulls, times the replay's work between consecutive
// pulls (the per-request step latency), and, when traced, records a
// span around each Next and keeps every request for the replay.
type pullSource struct {
	src       model.RequestSource
	heapEvery int
	n         int
	peak      uint64
	ms        runtime.MemStats
	steps     []float64 // ns between one pull returning and the next starting
	lastExit  time.Time

	led    *ledger // spans when non-nil
	parent int
	reqs   []model.TimedRequest // by ID, when record is set
	record bool
}

func (s *pullSource) Next() (model.TimedRequest, bool, error) {
	if s.n > 0 {
		s.steps = append(s.steps, float64(time.Since(s.lastExit)))
	}
	if s.heapEvery > 0 && s.n%s.heapEvery == 0 {
		runtime.ReadMemStats(&s.ms)
		s.peak = max(s.peak, s.ms.HeapAlloc)
	}
	var (
		r   model.TimedRequest
		ok  bool
		err error
	)
	if s.led != nil {
		t0 := s.led.now()
		r, ok, err = s.src.Next()
		s.led.add(0, s.parent, "workload.next", int(r.ID), t0, s.led.now())
	} else {
		r, ok, err = s.src.Next()
	}
	if ok && s.record {
		if int(r.ID) != len(s.reqs) {
			return r, ok, fmt.Errorf("request IDs are not dense: got %d after %d requests", r.ID, len(s.reqs))
		}
		s.reqs = append(s.reqs, r)
	}
	s.n++
	s.lastExit = time.Now()
	return r, ok, err
}

// countingSink counts the streamed obs events and their bytes and
// records a span around each write.
type countingSink struct {
	w             io.Writer
	led           *ledger
	parent        int
	events, bytes int64
}

func (c *countingSink) Write(p []byte) (int, error) {
	c.events++
	c.bytes += int64(len(p))
	t0 := c.led.now()
	n, err := c.w.Write(p)
	c.led.add(0, c.parent, "obs.sink_write", -1, t0, c.led.now())
	return n, err
}

// rtSnap is a reading of the runtime's allocation, GC and CPU counters.
type rtSnap struct {
	mallocs, bytes uint64
	heap           uint64 // live heap at the (later) reading
	gcs            uint32
	gcCPU, cpu     float64 // seconds
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRT() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	for i, n := range cpuSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, heap: ms.HeapAlloc, gcs: ms.NumGC, gcCPU: f(0), cpu: f(1)}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, heap: a.heap, gcs: a.gcs - b.gcs,
		gcCPU: a.gcCPU - b.gcCPU, cpu: a.cpu - b.cpu}
}

// soakRep is one untraced rep: a fresh plant replayed once.
type soakRep struct {
	setup, wall float64 // seconds
	m           *cloudsim.Metrics
	steps       []float64
	peak        uint64
	rt          rtSnap // over the replay
}

// runSoakRep builds a plant and replays it. A nil sink turns obs off.
func runSoakRep(seed int64, p soakParams, sink io.Writer) (*soakRep, error) {
	runtime.GC()
	t0 := time.Now()
	pl, err := buildSoak(seed, p, sink)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()
	pl.src.steps = make([]float64, 0, p.cfg.Requests)
	before := readRT()
	t1 := time.Now()
	m, err := pl.run(p.cfg.Requests)
	wall := time.Since(t1).Seconds()
	if err != nil {
		return nil, err
	}
	return &soakRep{setup: setup, wall: wall, m: m, steps: pl.src.steps, peak: pl.src.peak, rt: readRT().sub(before)}, nil
}

// soakTrace is the traced pass of a soak workload.
type soakTrace struct {
	led           *ledger
	run           span // RunStream under tracing
	events, bytes int64
	rp            *replayer
}

// traceSoak repeats the workload with harness spans on and its event
// stream written to a temporary file in dir, checks that tracing changed
// nothing (want is the untraced metrics), and replays the recorded
// events against a fresh copy of the plant.
func traceSoak(seed int64, p soakParams, dir string, want *cloudsim.Metrics) (*soakTrace, error) {
	f, err := os.CreateTemp(dir, "affinitybench-events-*.jsonl")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	led := newLedger()
	root := led.id()
	led.track(root)
	sink := &countingSink{w: bw, led: led, parent: root}
	runtime.GC()
	pl, err := buildSoak(seed, p, sink)
	if err != nil {
		return nil, err
	}
	pl.src.led, pl.src.parent, pl.src.record = led, root, true
	t0 := led.now()
	m, err := pl.run(p.cfg.Requests)
	t1 := led.now()
	if err != nil {
		return nil, err
	}
	run := span{ID: root, Parent: -1, Name: "cloudsim.run_stream", Req: -1, Start: t0, End: t1}
	led.add(run.ID, run.Parent, run.Name, run.Req, run.Start, run.End)
	if !reflect.DeepEqual(m, want) {
		return nil, fmt.Errorf("traced run diverged from the untraced run")
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("writing event trace: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rp, err := newReplayer(pl.tp, pl.caps, pl.src.reqs, p.elastic, led)
	if err != nil {
		return nil, err
	}
	if err := rp.replay(bufio.NewReaderSize(f, 1<<16), m); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &soakTrace{led: led, run: run, events: sink.events, bytes: sink.bytes, rp: rp}, nil
}
