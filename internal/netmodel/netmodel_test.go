package netmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/topology"
)

func plant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(2, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func sim(t *testing.T, tp *topology.Topology) (*eventsim.Engine, *FlowSim) {
	t.Helper()
	e := eventsim.New()
	fs, err := NewFlowSim(e, tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e, fs
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.AccessMBps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero access capacity accepted")
	}
	bad = DefaultConfig()
	bad.LatencyCrossRack = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	e := eventsim.New()
	if _, err := NewFlowSim(e, plant(t), bad); err == nil {
		t.Error("NewFlowSim accepted bad config")
	}
}

func TestSingleFlowIntraRack(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	cfg := DefaultConfig()
	var finished float64
	if _, err := fs.StartFlow(0, 1, 120, func(now float64) { finished = now }); err != nil {
		t.Fatal(err)
	}
	e.Run()
	// 120 MB over a 120 MB/s access link + same-rack latency.
	want := cfg.LatencySameRack + 1.0
	if math.Abs(finished-want) > 1e-6 {
		t.Errorf("finished at %v, want %v", finished, want)
	}
}

func TestSameNodeFlowUsesLocalRate(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	cfg := DefaultConfig()
	var finished float64
	_, _ = fs.StartFlow(2, 2, 400, func(now float64) { finished = now })
	e.Run()
	want := 400 / cfg.LocalMBps // no latency for same node
	if math.Abs(finished-want) > 1e-6 {
		t.Errorf("finished at %v, want %v", finished, want)
	}
}

func TestZeroSizeFlowIsLatencyOnly(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	cfg := DefaultConfig()
	var finished float64
	_, _ = fs.StartFlow(0, 3, 0, func(now float64) { finished = now })
	e.Run()
	if math.Abs(finished-cfg.LatencyCrossRack) > 1e-9 {
		t.Errorf("finished at %v, want latency %v", finished, cfg.LatencyCrossRack)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	tp := plant(t)
	_, fs := sim(t, tp)
	if _, err := fs.StartFlow(0, 1, -5, nil); err == nil {
		t.Error("negative size accepted")
	}
}

func TestTwoFlowsShareAccessLink(t *testing.T) {
	// Two flows out of the same source node share its access link and
	// each should get half the bandwidth.
	tp := plant(t)
	e, fs := sim(t, tp)
	var f1, f2 float64
	_, _ = fs.StartFlow(0, 1, 60, func(now float64) { f1 = now })
	_, _ = fs.StartFlow(0, 2, 60, func(now float64) { f2 = now })
	e.Run()
	// Each gets 60 MB/s until one finishes; both 60 MB → both ≈ 1 s (plus
	// latency). Without sharing they would take 0.5 s.
	if f1 < 0.9 || f2 < 0.9 {
		t.Errorf("flows finished at %v and %v; sharing not applied", f1, f2)
	}
	if f1 > 1.1 || f2 > 1.1 {
		t.Errorf("flows finished at %v and %v; too slow", f1, f2)
	}
}

func TestBandwidthFreesUpWhenFlowEnds(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	var short, long float64
	// Short flow shares with long flow; after it ends, the long flow
	// speeds up.
	_, _ = fs.StartFlow(0, 1, 30, func(now float64) { short = now })
	_, _ = fs.StartFlow(0, 2, 90, func(now float64) { long = now })
	e.Run()
	// Phase 1: both at 60 MB/s. Short (30 MB) done at ≈0.5s; long has
	// 60 MB left, now at 120 MB/s → +0.5s ⇒ ≈1.0s total.
	if math.Abs(short-0.5) > 0.01 {
		t.Errorf("short finished at %v, want ≈0.5", short)
	}
	if math.Abs(long-1.0) > 0.02 {
		t.Errorf("long finished at %v, want ≈1.0", long)
	}
}

func TestCrossRackUplinkContention(t *testing.T) {
	// Three cross-rack flows from distinct sources into distinct
	// destinations share the 300 MB/s rack uplink: 100 MB/s each, slower
	// than their 120 MB/s access links.
	tp := plant(t)
	e, fs := sim(t, tp)
	var done [3]float64
	for i := 0; i < 3; i++ {
		i := i
		// Sources 0,1,2 in rack 0 → destinations 3,4,5 in rack 1.
		_, _ = fs.StartFlow(topology.NodeID(i), topology.NodeID(3+i), 100, func(now float64) { done[i] = now })
	}
	e.Run()
	for i, d := range done {
		if math.Abs(d-1.0) > 0.02 { // 100 MB at 100 MB/s
			t.Errorf("flow %d finished at %v, want ≈1.0", i, d)
		}
	}
}

func TestIntraRackAvoidsUplink(t *testing.T) {
	// Three intra-rack flows between disjoint node pairs never touch the
	// uplink: each runs at full access speed.
	tp, err := topology.Uniform(1, 1, 6, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	e := eventsim.New()
	fs, err := NewFlowSim(e, tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var done [3]float64
	for i := 0; i < 3; i++ {
		i := i
		_, _ = fs.StartFlow(topology.NodeID(2*i), topology.NodeID(2*i+1), 120, func(now float64) { done[i] = now })
	}
	e.Run()
	for i, d := range done {
		if math.Abs(d-1.0) > 0.01 {
			t.Errorf("flow %d finished at %v, want ≈1.0 (no contention)", i, d)
		}
	}
}

func TestAllToOneIncast(t *testing.T) {
	// Five senders into one receiver: the receiver's access link is the
	// bottleneck (120/5 = 24 MB/s each) — the shuffle incast pattern that
	// makes single-reducer jobs network-bound.
	tp, err := topology.Uniform(1, 1, 6, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	e := eventsim.New()
	fs, err := NewFlowSim(e, tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 1; i <= 5; i++ {
		_, _ = fs.StartFlow(topology.NodeID(i), 0, 24, func(now float64) { last = now })
	}
	e.Run()
	if math.Abs(last-1.0) > 0.02 {
		t.Errorf("incast finished at %v, want ≈1.0", last)
	}
}

func TestCrossCloudPath(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	cfg := DefaultConfig()
	var finished float64
	// Node 0 (cloud 0) → node 6 (cloud 1): the 120 MB/s access links are
	// narrower than the 150 MB/s cloud uplink.
	_, _ = fs.StartFlow(0, 6, 150, func(now float64) { finished = now })
	e.Run()
	want := cfg.LatencyCrossCloud + 150.0/120.0
	if math.Abs(finished-want) > 0.01 {
		t.Errorf("finished at %v, want %v", finished, want)
	}
}

func TestUncontendedTime(t *testing.T) {
	tp := plant(t)
	_, fs := sim(t, tp)
	cfg := DefaultConfig()
	cases := []struct {
		src, dst topology.NodeID
		mb       float64
		want     float64
	}{
		{0, 0, 400, 1.0},                                 // local 400 MB/s
		{0, 1, 120, cfg.LatencySameRack + 1.0},           // access-bound
		{0, 3, 120, cfg.LatencyCrossRack + 1.0},          // uplink 300 > access 120
		{0, 6, 150, cfg.LatencyCrossCloud + 150.0/120.0}, // access-bound even cross-cloud
		{0, 5, 0, cfg.LatencyCrossRack},                  // latency only
	}
	for _, c := range cases {
		if got := fs.UncontendedTime(c.src, c.dst, c.mb); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("UncontendedTime(%d,%d,%v) = %v, want %v", c.src, c.dst, c.mb, got, c.want)
		}
	}
}

func TestActiveCount(t *testing.T) {
	tp := plant(t)
	e, fs := sim(t, tp)
	_, _ = fs.StartFlow(0, 1, 120, nil)
	_, _ = fs.StartFlow(1, 2, 120, nil)
	// Flows activate after latency; step up to a marker a hair forward.
	marked := false
	if _, err := e.At(0.001, func(float64) { marked = true }); err != nil {
		t.Fatal(err)
	}
	for !marked && e.Step() {
	}
	if fs.Active() != 2 {
		t.Errorf("Active = %d, want 2", fs.Active())
	}
	e.Run()
	if fs.Active() != 0 {
		t.Errorf("Active after drain = %d", fs.Active())
	}
}

// Property: every flow eventually completes, completion times are
// positive, and no flow beats its own uncontended lower bound.
func TestQuickFlowsRespectUncontendedBound(t *testing.T) {
	tp, err := topology.Uniform(1, 2, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := eventsim.New()
		fs, err := NewFlowSim(e, tp, DefaultConfig())
		if err != nil {
			return false
		}
		type rec struct {
			bound float64
			done  float64
		}
		n := 2 + r.Intn(10)
		recs := make([]*rec, n)
		for i := 0; i < n; i++ {
			src := topology.NodeID(r.Intn(tp.Nodes()))
			dst := topology.NodeID(r.Intn(tp.Nodes()))
			size := 1 + r.Float64()*200
			rc := &rec{bound: fs.UncontendedTime(src, dst, size)}
			recs[i] = rc
			if _, err := fs.StartFlow(src, dst, size, func(now float64) { rc.done = now }); err != nil {
				return false
			}
		}
		e.Run()
		if fs.Active() != 0 {
			return false
		}
		for _, rc := range recs {
			if rc.done <= 0 {
				return false // never completed
			}
			if rc.done < rc.bound-1e-6 {
				return false // faster than physics allows
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestManyFlowsConservation(t *testing.T) {
	// Throughput sanity: 12 concurrent same-rack flows from 6 distinct
	// sources to 6 distinct destinations cannot finish faster than the
	// aggregate access capacity allows.
	tp, err := topology.Uniform(1, 1, 12, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	e := eventsim.New()
	fs, err := NewFlowSim(e, tp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	totalMB := 0.0
	var last float64
	for i := 0; i < 6; i++ {
		size := 60.0
		totalMB += size
		_, _ = fs.StartFlow(topology.NodeID(i), topology.NodeID(6+i), size, func(now float64) { last = now })
	}
	e.Run()
	// Each pair is independent: 60 MB at 120 MB/s = 0.5 s.
	if math.Abs(last-0.5) > 0.01 {
		t.Errorf("last finished at %v, want ≈0.5", last)
	}
	_ = totalMB
}
