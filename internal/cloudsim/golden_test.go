package cloudsim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/experiments"
	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/mapreduce"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/elastic_golden.txt from this tree")

const goldenPath = "testdata/elastic_golden.txt"

// The elastic golden differential pins everything an elastic run
// reports except its resize_defer lines: cloudsim.Metrics with its
// sketches' contents, the registry's metric snapshot, and the JSONL
// trace, whose place events carry every served sample. How a
// deferred grow waits (retrying at every tick of its ladder, or parking
// until a release or an emptied queue wakes it) may change the
// resize_defer lines a run writes and the two attempt counters,
// placement.place_calls and placement.infeasible, and nothing else.
// Two corpora: continuous-time soak plants, where equal
// timestamps almost never meet, and integer-time traces on the 6-node
// plant, where arrivals, departures, shrinks and grow retries keep
// landing on the same instant. Regenerate with
//
//	go test ./internal/cloudsim -run ElasticGolden -update
//
// only when a change is meant to alter those outputs.
func TestElasticGoldenContinuous(t *testing.T) {
	got := map[string]string{}
	for i := 0; i < 12; i++ {
		seed := int64(101 + 7919*i)
		got[fmt.Sprintf("soak-%d", seed)] = soakElasticDigest(t, seed, 2000, i%4 != 0)
	}
	// The figure's trace is hashed after its metrics, so it streams into
	// a buffer first.
	var trace bytes.Buffer
	cfg := experiments.DefaultElasticConfig()
	cfg.Trace = &dropDefers{w: &trace}
	res, err := experiments.Elastic(2012, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	writeMetrics(h, res.Static)
	writeMetrics(h, res.Elastic)
	if err := res.Reg.WriteMetricsJSON(h); err != nil {
		t.Fatal(err)
	}
	h.Write(trace.Bytes())
	got["fig-elastic-2012"] = sum(h)
	checkGolden(t, "continuous", got)
}

func TestElasticGoldenTies(t *testing.T) {
	got := map[string]string{}
	for seed := int64(0); seed < 200; seed++ {
		got[fmt.Sprintf("ties-%d", seed)] = tiesDigest(t, seed)
	}
	checkGolden(t, "ties", got)
}

// soakElasticDigest replays one soak-elastic plant: the 2×8×16 soak
// scenario with the benchmark's resize policy, and with a fault
// schedule dense enough to fire several times in a short run.
func soakElasticDigest(t *testing.T, seed int64, requests int, withFaults bool) string {
	t.Helper()
	cfg := experiments.DefaultSoakConfig()
	tp, err := topology.Uniform(cfg.Clouds, cfg.Racks, cfg.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewOpenLoop(seed+1, requests, cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := workload.RandomCapacities(seed, tp.Nodes(), cfg.Workload.Types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		t.Fatal(err)
	}
	var fc faults.Config
	if withFaults {
		fc = faults.Config{MTBF: 600, MTTR: 300, RackEvery: 6, Horizon: float64(requests) / cfg.Workload.BaseRate}
	}
	return runDigest(t, tp, caps, cloudsim.Config{
		Policy:    queue.FIFO,
		Faults:    fc,
		FaultSeed: seed + 2,
		Recovery:  cfg.Recovery,
		Sketch:    cfg.Sketch,
		Elastic: cloudsim.ElasticConfig{
			Enabled:      true,
			GrowFactor:   0.5,
			MapFrac:      mapreduce.WordCount("input").PhaseSplit(),
			MinPayoff:    1,
			DeferBackoff: 5,
		},
	}, gen)
}

// tiesDigest replays one integer-time trace on the 6-node plant: bursts
// of same-instant arrivals, holds that are mostly multiples of the
// 5-second DeferBackoff, and shrink boundaries at 3/5 of the hold, so
// retry ticks keep coinciding with departures, shrinks and each other.
// Odd seeds add a crash/repair schedule.
func tiesDigest(t *testing.T, seed int64) string {
	t.Helper()
	tp, err := topology.Uniform(1, 2, 3, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	caps := make([][]int, tp.Nodes())
	for i := range caps {
		caps[i] = []int{2, 2}
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]model.TimedRequest, 12+rng.Intn(20))
	at := 0.0
	for i := range reqs {
		if rng.Intn(3) == 0 {
			at += float64(rng.Intn(4))
		}
		vec := model.Request{rng.Intn(5), rng.Intn(5)}
		if vec[0]+vec[1] == 0 {
			vec[0] = 1
		}
		hold := float64(5 * (1 + rng.Intn(8)))
		if rng.Intn(4) == 0 {
			hold = float64(1 + rng.Intn(40))
		}
		reqs[i] = model.TimedRequest{ID: model.RequestID(i), Vector: vec, Arrival: at, Hold: hold}
	}
	cfg := cloudsim.Config{
		Policy:  queue.FIFO,
		Elastic: cloudsim.ElasticConfig{Enabled: true, GrowFactor: 0.5, MapFrac: 0.6, MinPayoff: 1, DeferBackoff: 5},
	}
	if seed%2 == 1 {
		cfg.Faults = faults.Config{MTBF: 40, MTTR: 20, Horizon: 120}
		cfg.FaultSeed = seed
	}
	return runDigest(t, tp, caps, cfg, model.NewSliceSource(reqs))
}

// runDigest runs one elastic scenario with a streaming registry, and
// hashes its metrics, metric snapshot and trace.
func runDigest(t *testing.T, tp *topology.Topology, caps [][]int, cfg cloudsim.Config, src model.RequestSource) string {
	t.Helper()
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	f := &dropDefers{w: h}
	reg := obs.NewStreamingRegistry(f)
	cfg.Obs = reg
	sim, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.RunStream(src)
	if err != nil {
		// Keep going: the divergence count over the whole corpus says
		// more than the first failure.
		t.Error(err)
		return "run failed"
	}
	if err := reg.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if len(f.line) != 0 {
		t.Fatalf("trace ends in a partial line %q", f.line)
	}
	writeMetrics(h, m)
	if err := reg.WriteMetricsJSON(h); err != nil {
		t.Fatal(err)
	}
	return sum(h)
}

// writeMetrics renders m with its sketches' contents, not their
// addresses.
func writeMetrics(w io.Writer, m *cloudsim.Metrics) {
	c := *m
	c.DistanceSketch, c.WaitSketch = nil, nil
	fmt.Fprintf(w, "%+v\n%+v\n%+v\n", c, *m.DistanceSketch, *m.WaitSketch)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// dropDefers forwards a JSONL trace line by line, minus its
// resize_defer events.
type dropDefers struct {
	w    io.Writer
	line []byte
}

func (d *dropDefers) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			d.line = append(d.line, p...)
			break
		}
		d.line = append(d.line, p[:i+1]...)
		p = p[i+1:]
		if !bytes.Contains(d.line, []byte(`,"kind":"resize_defer",`)) {
			if _, err := d.w.Write(d.line); err != nil {
				return 0, err
			}
		}
		d.line = d.line[:0]
	}
	return n, nil
}

// checkGolden compares one corpus's digests against the checked-in
// file, or rewrites that corpus's entries under -update.
func checkGolden(t *testing.T, corpus string, got map[string]string) {
	t.Helper()
	want := readGolden(t)
	if *update {
		if t.Failed() {
			t.Fatal("a run failed; not rewriting the goldens")
		}
		for k := range want {
			if strings.HasPrefix(k, corpus+"/") {
				delete(want, k)
			}
		}
		for k, v := range got {
			want[corpus+"/"+k] = v
		}
		writeGolden(t, want)
		return
	}
	var diverged []string
	for k, v := range got {
		w, ok := want[corpus+"/"+k]
		if !ok {
			t.Fatalf("no golden digest for %s/%s; run with -update", corpus, k)
		}
		if w != v {
			diverged = append(diverged, k)
		}
	}
	slices.Sort(diverged)
	if len(diverged) > 0 {
		t.Errorf("%s corpus: %d of %d cases diverged from %s: %v", corpus, len(diverged), len(got), goldenPath, diverged)
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	b, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		out[k] = v
	}
	return out
}

func writeGolden(t *testing.T, m map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, m[k])
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
