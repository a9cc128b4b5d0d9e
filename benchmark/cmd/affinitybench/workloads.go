package main

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"time"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/stats"
)

// plantSeed is the seed of the k-th plant of a run. A run measures a
// fixed number of freshly built plants, each with its own capacities,
// workload and faults, because a single plant's figures depend strongly
// on its seed; averaging over many keeps one run's figures steady from
// one seed to the next. Plant 0 uses the run's seed itself.
func plantSeed(seed int64, k int) int64 { return seed + 7919*int64(k) }

// samples collects the timing figures of reps (soak) or windows (svc),
// each a median over them in the result.
type samples struct {
	ops, p50, p99, p999, peak, allocs, gcFrac, bytes, gcs []float64
	latN                                                  int
}

// add records one rep or window: its throughput, per-op latencies in ns
// (sorted in place), peak sampled heap (the closing reading counts too),
// runtime counters and op count.
func (s *samples) add(ops float64, lat []float64, peak uint64, rt rtSnap, n float64) {
	s.ops = append(s.ops, ops)
	sort.Float64s(lat)
	s.p50 = append(s.p50, stats.Percentile(lat, 50)/1e3)
	s.p99 = append(s.p99, stats.Percentile(lat, 99)/1e3)
	s.p999 = append(s.p999, stats.Percentile(lat, 99.9)/1e3)
	s.latN += len(lat)
	s.peak = append(s.peak, float64(max(peak, rt.heap))/(1<<20))
	s.allocs = append(s.allocs, float64(rt.mallocs)/n)
	s.gcFrac = append(s.gcFrac, frac(rt.gcCPU, rt.cpu))
	s.bytes = append(s.bytes, float64(rt.bytes)/n)
	s.gcs = append(s.gcs, float64(rt.gcs)/n*1e3)
}

// report records the medians, with the timings scaled to the reference
// machine speed (see speed.scale); the tail latencies p99 and p999 are
// multiplied by tail instead.
func (s *samples) report(res *Result, scale, tail float64) {
	res.setMedian("ops_per_s", scaled(s.ops, 1/scale))
	for _, l := range []struct {
		name string
		xs   []float64
		f    float64
	}{{"latency_p50_us", s.p50, scale}, {"latency_p99_us", s.p99, tail}, {"latency_p999_us", s.p999, tail}} {
		res.setMedian(l.name, scaled(l.xs, l.f))
		v := res.Metrics[l.name]
		v.N = s.latN
		res.Metrics[l.name] = v
	}
	res.setMedian("peak_heap_mib", s.peak)
	res.setMedian("allocs_per_op", s.allocs)
	res.setMedian("runtime.gc_cpu_frac", s.gcFrac)
	res.setMedian("runtime.bytes_per_op", s.bytes)
	res.setMedian("runtime.gc_cycles_per_kop", s.gcs)
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// reportSpeed records the run's set-up times, scaled, and its kernel time.
func reportSpeed(res *Result, sp *speed, setup []float64) {
	res.setMedian("setup_s", scaled(setup, sp.scale()))
	res.set("machine.calib_ms", median(sp.kernel)*1e3, len(sp.kernel))
}

// runSoak measures soak or soak-elastic: one replay of a fixed request
// count per plant, with obs streaming to a discarding sink, over o.Reps
// fresh plants.
func runSoak(o Options, elastic bool) (*Result, error) {
	name, n := "soak", o.sizes.soak
	if elastic {
		name, n = "soak-elastic", o.sizes.elastic
	}
	p := newSoakParams(n, elastic)
	res := newResult(name, o.Seed, o.Reps, o.Trace)
	req := float64(n)
	var (
		ts                   samples
		sp                   speed
		setup                []float64
		first                *soakRep
		dist, waitSum        float64
		served, waited, lost int
	)
	for k := 0; k < o.Reps; k++ {
		if err := sp.measure(); err != nil {
			return nil, err
		}
		rep, err := runSoakRep(plantSeed(o.Seed, k), p, io.Discard)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = rep
		}
		m := rep.m
		dist += m.TotalDistance
		served += m.Served
		waitSum += m.WaitSketch.Sum()
		waited += int(m.WaitSketch.Count())
		lost += m.Rejected + m.Unplaced
		setup = append(setup, rep.setup)
		ts.add(req/rep.wall, rep.steps, rep.peak, rep.rt, req)
	}
	again, err := p.reference(o.Seed)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(again, first.m) {
		return nil, errors.New("plant 0 replayed again (through experiments.Soak, for soak) gave different metrics")
	}
	reportSpeed(res, &sp, setup)
	ts.report(res, sp.scale(), sp.scale())
	res.set("dc_mean", frac(dist, float64(served)), served)
	res.set("wait_mean_s", frac(waitSum, float64(waited)), waited)
	res.set("failed_frac", float64(lost)/(req*float64(o.Reps)), n*o.Reps)
	res.Attempted = int64(n * (o.Reps + 1))
	if o.Trace {
		if err := traceSoakLayers(o, p, res, first.m, first.wall); err != nil {
			return nil, err
		}
		res.Attempted += int64(2 * n)
	}
	return res, nil
}

// replayLayers are the ledger series of calls the replay made into the
// program's layers.
func replayLayers(l *ledger) []string {
	var out []string
	for _, n := range l.names() {
		switch n {
		case "workload.next", "obs.sink_write", "cloudsim.run_stream", "replay":
		default:
			out = append(out, n)
		}
	}
	return out
}

// traceSoakLayers runs the traced pass (spans, an obs-off rep, and the
// trace-driven replay) and fills the per-layer metrics.
func traceSoakLayers(o Options, p soakParams, m *Result, want *cloudsim.Metrics, wallOn float64) error {
	tr, err := traceSoak(o.Seed, p, o.WorkDir, want)
	if err != nil {
		return err
	}
	off, err := runSoakRep(o.Seed, p, nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(off.m, want) {
		return errors.New("obs-off run produced different metrics")
	}
	led, rp := tr.led, tr.rp
	req := float64(p.cfg.Requests)
	calls := func(name string) int { return led.calls(name) }

	m.set("workload.next_ns", led.meanNS("workload.next"), calls("workload.next"))
	m.set("obs.events_per_op", float64(tr.events)/req, int(tr.events))
	m.set("obs.bytes_per_op", float64(tr.bytes)/req, int(tr.events))
	m.set("obs.sink_ns_per_op", led.totalNS("obs.sink_write")/req, calls("obs.sink_write"))
	m.set("obs.cost_frac", 1-off.wall/wallOn, 2)

	k := rp.kinds
	m.set("cloudsim.queued_frac", float64(k["queue_admit"])/req, k["queue_admit"])
	m.set("cloudsim.fault_victims_per_op", float64(k["degraded"])/req, k["degraded"])
	if p.elastic.Enabled {
		m.set("cloudsim.grow_defers_per_op", float64(k["resize_defer"])/req, k["resize_defer"])
		m.set("cloudsim.grows_per_op", float64(k["resize_grow"])/req, k["resize_grow"])
		m.set("cloudsim.shrinks_per_op", float64(k["resize_shrink"])/req, k["resize_shrink"])
	}
	layers := led.totalNS(replayLayers(led)...)
	runNS := float64(tr.run.End - tr.run.Start)
	self := float64(led.selfNS(tr.run)) - layers
	m.set("cloudsim.self_ns_per_op", self/req, p.cfg.Requests)
	m.set("cloudsim.explained_frac", 1-self/runNS, 1)

	m.set("placement.place_ns_p50", led.pctNS("placement.place", 50), calls("placement.place"))
	m.set("placement.place_ns_p99", led.pctNS("placement.place", 99), calls("placement.place"))
	m.set("placement.place_ns_mean", led.meanNS("placement.place"), calls("placement.place"))
	if p.elastic.Enabled {
		m.set("placement.delta_ns_p50", led.pctNS("placement.delta", 50), calls("placement.delta"))
		m.set("placement.delta_ns_p99", led.pctNS("placement.delta", 99), calls("placement.delta"))
		m.set("placement.shrink_ns_p50", led.pctNS("placement.shrink", 50), calls("placement.shrink"))
		m.set("placement.shrink_ns_p99", led.pctNS("placement.shrink", 99), calls("placement.shrink"))
		m.set("affinity.sparse_ns_mean", led.meanNS("affinity.sparse"), calls("affinity.sparse"))
		m.set("inventory.release_list_ns_mean", led.meanNS("inventory.release_list"), calls("inventory.release_list"))
	}
	m.set("placement.multinode_frac", frac(float64(rp.multinode), float64(rp.places)), rp.places)
	setAllocs(m, led, "placement")
	m.set("inventory.allocate_ns_mean", led.meanNS("inventory.allocate"), calls("inventory.allocate"))
	m.set("inventory.release_ns_mean", led.meanNS("inventory.release"), calls("inventory.release"))
	m.set("inventory.fail_restore_ns_mean", led.meanNS("inventory.fail_restore"), calls("inventory.fail_restore"))
	setAllocs(m, led, "inventory")
	m.set("affinity.to_dense_ns_mean", led.meanNS("affinity.to_dense"), calls("affinity.to_dense"))
	m.set("affinity.distance_ns_mean", led.meanNS("affinity.distance"), calls("affinity.distance"))
	setAllocs(m, led, "affinity")
	m.set("migration.plan_ns_mean", led.meanNS("migration.plan"), calls("migration.plan"))
	m.set("eventsim.op_ns_mean", led.meanNS("eventsim.op"), calls("eventsim.op"))
	m.set("eventsim.pending_mean", frac(rp.pendSum, float64(rp.events())), rp.events())
	m.set("queue.drain_ns_mean", led.meanNS("queue.drain"), calls("queue.drain"))
	m.set("queue.len_mean", frac(rp.lenSum, float64(rp.drains)), rp.drains)
	m.set("trace.overhead_frac", 1-wallOn/(runNS/1e9), 1)
	if o.Spans != "" {
		return led.writeSample(o.Spans)
	}
	return nil
}

// setAllocs reports a layer's allocations per call from the probed
// calls of every ledger series under it.
func setAllocs(res *Result, l *ledger, layer string) {
	v, n := l.allocsPerCall(prefixed(l, layer+".")...)
	res.set(layer+".allocs_per_call", v, n)
}

// prefixed lists the ledger series under one layer.
func prefixed(l *ledger, prefix string) []string {
	var out []string
	for _, n := range l.names() {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out
}

// windowsPerPlant is how many windows each service plant is measured
// for.
const windowsPerPlant = 2

// runSvc measures svc-hop or svc-16k: a closed loop of clients cycling
// through the service in fixed-size windows, over o.Reps fresh plants.
// Each plant's set-up is timed.
func runSvc(o Options, p svcParams) (*Result, error) {
	name := "svc-hop"
	if p.resize {
		name = "svc-16k"
	}
	res := newResult(name, o.Seed, o.Reps, o.Trace)
	var (
		ts    samples
		sp    speed
		setup []float64
		agg   svcTotals
	)
	for k := 0; k < o.Reps; k++ {
		seed := plantSeed(o.Seed, k)
		if err := sp.measure(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		pl, err := buildSvc(seed, p)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := measurePlant(seed, p, pl, &ts, &agg); err != nil {
			return nil, errors.Join(err, pl.svc.Close())
		}
		if err := pl.close(); err != nil {
			return nil, err
		}
	}
	reportSpeed(res, &sp, setup)
	tail := sp.scale()
	if p.rawTail {
		tail = 1
	}
	ts.report(res, sp.scale(), tail)
	res.set("dc_mean", frac(agg.dcSum, float64(agg.dcN)), agg.dcN)
	res.set("failed_frac", frac(float64(agg.growFails), float64(agg.calls)), agg.calls)
	res.set("service.batch_mean", frac(float64(agg.ops), float64(agg.batches)), int(agg.batches))
	res.set("service.batch_max", float64(agg.maxBatch), int(agg.batches))
	if p.resize {
		res.set("service.grow_fail_frac", frac(float64(agg.growFails), float64(agg.grows)), agg.grows)
	}
	res.Attempted = int64(agg.calls)
	if !o.Trace {
		return res, nil
	}
	pl, err := buildSvc(o.Seed, p)
	if err != nil {
		return nil, err
	}
	if err := traceSvcLayers(o, p, pl, res, sp.scale()); err != nil {
		return nil, err
	}
	return res, nil
}

// svcTotals accumulates the service figures of all plants.
type svcTotals struct {
	dcSum                        float64
	dcN, calls, grows, growFails int
	ops, batches, maxBatch       uint64
}

func newClients(seed int64, p svcParams, be backend) ([]*client, error) {
	cs := make([]*client, clients)
	for w := range cs {
		c, err := newClient(seed, w, p, be)
		if err != nil {
			return nil, err
		}
		cs[w] = c
	}
	cs[0].heap = true
	return cs, nil
}

// measurePlant runs one plant's untraced windows.
func measurePlant(seed int64, p svcParams, pl *svcPlant, ts *samples, agg *svcTotals) error {
	cs, err := newClients(seed, p, svcBackend{pl.svc})
	if err != nil {
		return err
	}
	st0 := pl.svc.Stats()
	for i := 0; i < windowsPerPlant; i++ {
		cs[0].peak = 0
		w, err := runWindow(cs)
		if err != nil {
			return err
		}
		c := float64(w.calls)
		agg.calls += w.calls
		ts.add(c/w.wall, w.lat, cs[0].peak, w.rt, c)
	}
	st := pl.svc.Stats()
	agg.ops += st.Ops - st0.Ops
	agg.batches += st.Batches - st0.Batches
	agg.maxBatch = max(agg.maxBatch, st.MaxBatch)
	for _, c := range cs {
		agg.dcSum += c.dcSum
		agg.dcN += c.dcN
		agg.grows += c.grows
		agg.growFails += c.growFails
	}
	return nil
}

// traceSvcLayers runs the traced windows, then a 1-client run against a
// direct twin that makes the apply loop's calls itself, and fills the
// per-layer metrics. It closes the plant.
func traceSvcLayers(o Options, p svcParams, pl *svcPlant, res *Result, scale float64) error {
	cs, err := newClients(o.Seed, p, svcBackend{pl.svc})
	if err != nil {
		return errors.Join(err, pl.svc.Close())
	}
	led := newLedger()
	var traced []float64
	for len(traced) < windowsPerPlant {
		for w, c := range cs {
			c.led = led.fork(w + 1)
		}
		w, err := runWindow(cs)
		if err != nil {
			return errors.Join(err, pl.svc.Close())
		}
		traced = append(traced, float64(w.calls)/w.wall)
		for _, c := range cs {
			led.merge(c.led)
		}
		res.Attempted += int64(w.calls)
	}
	for k, sp := range kindSpan {
		if !p.resize && (k == kGrow || k == kShrink) {
			continue
		}
		short := strings.TrimPrefix(sp, "service.")
		res.set("service."+short+"_us_p50", led.pctNS(sp, 50)/1e3, led.calls(sp))
		res.set("service."+short+"_us_p99", led.pctNS(sp, 99)/1e3, led.calls(sp))
	}
	// Plant 0's untraced windows ran the same seed; their recorded
	// throughput is scaled.
	untraced := median(res.Metrics["ops_per_s"].Samples[:windowsPerPlant]) * scale
	res.set("trace.overhead_frac", 1-median(traced)/untraced, len(traced))

	// One client against the service, then the same op sequence against
	// the twin: untimed for the hop overhead, timed for the layer ledger.
	n := p.cycles * clients
	one, err := oneClient(o.Seed, p, svcBackend{pl.svc}, n)
	if err != nil {
		return errors.Join(err, pl.svc.Close())
	}
	if err := pl.close(); err != nil {
		return err
	}
	tw, err := newTwin(pl)
	if err != nil {
		return err
	}
	direct, err := oneClient(o.Seed, p, tw, n)
	if err != nil {
		return err
	}
	tw.led = newLedger()
	timed, err := oneClient(o.Seed, p, tw, n)
	if err != nil {
		return err
	}
	for _, c := range []*oneRun{direct, timed} {
		if !reflect.DeepEqual(c.log, one.log) {
			return errors.New("the direct twin's results differ from the service's")
		}
	}
	if !reflect.DeepEqual(tw.inv.AllocatedMatrix(), pl.base) {
		return errors.New("twin inventory did not return to its post-fill state")
	}
	if err := tw.inv.CheckInvariants(); err != nil {
		return err
	}
	if err := tw.tidx.CheckConsistent(); err != nil {
		return err
	}
	calls := float64(one.calls)
	res.set("service.overhead_ns_per_op", (one.wall-direct.wall)*1e9/calls, one.calls)
	res.set("service.hop_allocs_per_op", (float64(one.rt.mallocs)-float64(direct.rt.mallocs))/calls, one.calls)
	res.Attempted += int64(3 * one.calls)

	tl := tw.led
	places, multi := 0, 0
	for _, r := range one.log {
		if r.kind == kPlace {
			places++
			if !singleNode(r.entries) {
				multi++
			}
		}
	}
	res.set("placement.place_ns_p50", tl.pctNS("placement.place", 50), tl.calls("placement.place"))
	res.set("placement.place_ns_p99", tl.pctNS("placement.place", 99), tl.calls("placement.place"))
	res.set("placement.place_ns_mean", tl.meanNS("placement.place"), tl.calls("placement.place"))
	if p.resize {
		res.set("placement.delta_ns_p50", tl.pctNS("placement.delta", 50), tl.calls("placement.delta"))
		res.set("placement.delta_ns_p99", tl.pctNS("placement.delta", 99), tl.calls("placement.delta"))
		res.set("placement.shrink_ns_p50", tl.pctNS("placement.shrink", 50), tl.calls("placement.shrink"))
		res.set("placement.shrink_ns_p99", tl.pctNS("placement.shrink", 99), tl.calls("placement.shrink"))
	}
	res.set("placement.multinode_frac", frac(float64(multi), float64(places)), places)
	setAllocs(res, tl, "placement")
	res.set("inventory.allocate_ns_mean", tl.meanNS("inventory.allocate"), tl.calls("inventory.allocate"))
	res.set("inventory.release_list_ns_mean", tl.meanNS("inventory.release_list"), tl.calls("inventory.release_list"))
	setAllocs(res, tl, "inventory")
	if o.Spans != "" {
		return led.writeSample(o.Spans)
	}
	return nil
}

// oneRun is a single client's sequential run.
type oneRun struct {
	log   []opRecord
	calls int
	wall  float64
	rt    rtSnap
}

// oneClient runs client 0's first cycles alone, logging every call's
// outcome.
func oneClient(seed int64, p svcParams, be backend, cycles int) (*oneRun, error) {
	c, err := newClient(seed, 0, p, be)
	if err != nil {
		return nil, err
	}
	c.log = make([]opRecord, 0, 4*cycles)
	c.lat = make([]float64, 0, cycles)
	before := readRT()
	t0 := time.Now()
	c.runCycles(cycles)
	run := &oneRun{log: c.log, calls: c.calls, wall: time.Since(t0).Seconds(), rt: readRT().sub(before)}
	if c.err != nil {
		return nil, fmt.Errorf("single client: %w", c.err)
	}
	return run, nil
}
