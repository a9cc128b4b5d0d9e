package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/service"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// svcParams sizes a closed-loop service workload.
type svcParams struct {
	clouds, racks, nodesPerRack int
	types                       int
	// uniformCap > 0 gives every node that many VMs of every type;
	// otherwise capacities are workload.RandomCapacities with MaxPerType 2.
	uniformCap int
	queueCap   int
	// fill is the share of VM slots taken by resident clusters at set-up.
	fill float64
	// resize cycles place → grow → shrink → release instead of
	// place → release, with open-loop-sized requests.
	resize bool
	// cycles is each client's cycle count per measured window.
	cycles int
	// rawTail reports the tail latencies unscaled. On an idle plant the
	// tail is set by the Go scheduler waking the clients, batcher and
	// apply loop on two cores, not by CPU speed, so scaling it to the
	// calibration kernel only adds the kernel's noise (spread 2% raw,
	// 17% scaled, across 10 seeds).
	rawTail bool
}

// clients is the closed loop's width: one client per core of the 2-core
// machine the baselines were taken on.
const clients = 2

// svcPlant is a running service over a freshly built, pre-filled plant.
type svcPlant struct {
	tp      *topology.Topology
	caps    [][]int
	fillReq []model.Request
	inv     *inventory.Inventory
	svc     *service.Service
	base    [][]int // allocation matrix right after the pre-fill
}

// capacities builds the plant's capacity matrix; seed is the capacity
// seed.
func (p svcParams) capacities(seed int64, nodes int) ([][]int, error) {
	if p.uniformCap > 0 {
		caps := make([][]int, nodes)
		for i := range caps {
			caps[i] = make([]int, p.types)
			for j := range caps[i] {
				caps[i][j] = p.uniformCap
			}
		}
		return caps, nil
	}
	return workload.RandomCapacities(seed, nodes, p.types, workload.InventoryConfig{MaxPerType: 2})
}

// fillRequests draws open-loop-sized requests (workload seed seed+1)
// until they cover the fill share of the plant's VM slots.
func (p svcParams) fillRequests(seed int64, caps [][]int) ([]model.Request, error) {
	total := 0
	for _, row := range caps {
		total += model.Sum(row)
	}
	target := int(p.fill * float64(total))
	if target == 0 {
		return nil, nil
	}
	gen, err := openLoopSizes(seed+1, p.types)
	if err != nil {
		return nil, err
	}
	var out []model.Request
	for used := 0; used < target; {
		r, _, err := gen.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, r.Vector)
		used += r.Vector.TotalVMs()
	}
	return out, nil
}

// openLoopSizes is a request-size stream from the soak's open-loop
// process; arrival times are ignored.
func openLoopSizes(seed int64, types int) (*workload.OpenLoop, error) {
	cfg := workload.DefaultOpenLoopConfig()
	cfg.Types = types
	return workload.NewOpenLoop(seed, 1<<30, cfg)
}

// buildSvc builds the plant, starts the service (default BatchSize 32,
// as in the repo's BenchmarkService) and pre-fills it through the
// service's own Place, one call at a time.
func buildSvc(seed int64, p svcParams) (*svcPlant, error) {
	tp, err := topology.Uniform(p.clouds, p.racks, p.nodesPerRack, topology.DefaultDistances())
	if err != nil {
		return nil, err
	}
	caps, err := p.capacities(seed, tp.Nodes())
	if err != nil {
		return nil, err
	}
	fill, err := p.fillRequests(seed, caps)
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Topology: tp, Inventory: inv, QueueCap: p.queueCap})
	if err != nil {
		return nil, err
	}
	for i, r := range fill {
		if _, err := svc.Place(r); err != nil {
			return nil, errors.Join(fmt.Errorf("pre-fill placement %d: %w", i, err), svc.Close())
		}
	}
	return &svcPlant{tp: tp, caps: caps, fillReq: fill, inv: inv, svc: svc, base: inv.AllocatedMatrix()}, nil
}

// close stops the service and checks the plant came back to exactly its
// post-fill state with consistent bookkeeping.
func (pl *svcPlant) close() error {
	if err := pl.svc.Close(); err != nil {
		return fmt.Errorf("closing the service: %w", err)
	}
	if got := pl.inv.AllocatedMatrix(); !reflect.DeepEqual(got, pl.base) {
		return errors.New("inventory did not return to its post-fill state")
	}
	if err := pl.inv.CheckInvariants(); err != nil {
		return err
	}
	return pl.inv.TierIndex().CheckConsistent()
}

// backend is what a client drives: the service, or the direct twin that
// makes the apply loop's calls itself.
type backend interface {
	place(r model.Request) (service.Placement, error)
	grow(entries []affinity.VMEntry, delta model.Request) (service.Placement, error)
	shrink(entries []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error)
	release(entries []affinity.VMEntry) error
}

type svcBackend struct{ s *service.Service }

func (b svcBackend) place(r model.Request) (service.Placement, error) { return b.s.Place(r) }
func (b svcBackend) grow(e []affinity.VMEntry, d model.Request) (service.Placement, error) {
	return b.s.Grow(e, d)
}
func (b svcBackend) shrink(e []affinity.VMEntry, d model.Request) ([]affinity.VMEntry, error) {
	return b.s.Shrink(e, d)
}
func (b svcBackend) release(e []affinity.VMEntry) error { return b.s.Release(e) }

// Call kinds, also the span names of traced service calls.
const (
	kPlace = iota
	kGrow
	kShrink
	kRelease
)

var kindSpan = [...]string{"service.place", "service.grow", "service.shrink", "service.release"}

// opRecord is one call's outcome, compared between the service and its
// twin.
type opRecord struct {
	kind         int
	entries      []affinity.VMEntry
	dc           float64
	center       topology.NodeID
	insufficient bool
}

// client is one closed-loop caller. It only touches its own fields while
// its window runs.
type client struct {
	p                svcParams
	be               backend
	rng              *rand.Rand         // place→release sizes
	gen              *workload.OpenLoop // resize sizes
	heap             bool               // samples the live heap every 4096 calls
	led              *ledger            // spans around each call when traced
	log              []opRecord         // call outcomes when non-nil
	calls            int
	lat              []float64 // ns per Place call, this window
	dcSum            float64
	dcN              int
	grows, growFails int
	peak             uint64
	ms               runtime.MemStats
	err              error
}

// newClient seeds client w from seed+100+w, following experiments.Soak's
// seed derivation.
func newClient(seed int64, w int, p svcParams, be backend) (*client, error) {
	c := &client{p: p, be: be}
	if p.resize {
		gen, err := openLoopSizes(seed+100+int64(w), p.types)
		if err != nil {
			return nil, err
		}
		c.gen = gen
	} else {
		c.rng = rand.New(rand.NewSource(seed + 100 + int64(w)))
	}
	return c, nil
}

func (c *client) next() (model.Request, error) {
	if c.gen != nil {
		r, _, err := c.gen.Next()
		return r.Vector, err
	}
	r := make(model.Request, c.p.types)
	for j := range r {
		r[j] = 2 + c.rng.Intn(5)
	}
	return r, nil
}

// run executes the window's cycles; the caller waits on wg.
func (c *client) run(wg *sync.WaitGroup) {
	defer wg.Done()
	c.runCycles(c.p.cycles)
}

func (c *client) runCycles(n int) {
	for i := 0; i < n && c.err == nil; i++ {
		if err := c.cycle(i); err != nil {
			c.err = err
		}
	}
}

// observe closes one call: latency (of placements only), heap sample,
// span, and log record.
func (c *client) observe(kind int, t0 time.Time, req int, rec opRecord) {
	if kind == kPlace {
		c.lat = append(c.lat, float64(time.Since(t0)))
	}
	c.calls++
	if c.heap && c.calls%4096 == 0 {
		runtime.ReadMemStats(&c.ms)
		c.peak = max(c.peak, c.ms.HeapAlloc)
	}
	if c.led != nil {
		start := int64(t0.Sub(c.led.epoch))
		c.led.add(0, -1, kindSpan[kind], req, start, c.led.now())
	}
	if c.log != nil {
		rec.kind = kind
		c.log = append(c.log, rec)
	}
}

// cycle is one closed-loop round: place, (grow, shrink,) release. Every
// answer is checked against what was asked.
func (c *client) cycle(i int) error {
	vec, err := c.next()
	if err != nil {
		return err
	}
	t0 := time.Now()
	p, err := c.be.place(vec)
	c.observe(kPlace, t0, i, opRecord{entries: p.Entries, dc: p.DC, center: p.Center})
	if err != nil {
		return fmt.Errorf("place %v: %w", vec, err)
	}
	if err := covers(p.Entries, vec); err != nil {
		return fmt.Errorf("place %v: %w", vec, err)
	}
	c.dcSum += p.DC
	c.dcN++
	entries := p.Entries
	if c.p.resize {
		delta := half(vec)
		c.grows++
		t0 = time.Now()
		g, err := c.be.grow(entries, delta)
		insufficient := errors.Is(err, placement.ErrInsufficient)
		c.observe(kGrow, t0, i, opRecord{entries: g.Entries, dc: g.DC, center: g.Center, insufficient: insufficient})
		switch {
		case insufficient:
			c.growFails++
		case err != nil:
			return fmt.Errorf("grow %v by %v: %w", vec, delta, err)
		default:
			if err := covers(g.Entries, delta); err != nil {
				return fmt.Errorf("grow by %v: %w", delta, err)
			}
			merged := append(append([]affinity.VMEntry(nil), entries...), g.Entries...)
			t0 = time.Now()
			victims, err := c.be.shrink(merged, delta)
			c.observe(kShrink, t0, i, opRecord{entries: victims})
			if err != nil {
				return fmt.Errorf("shrink by %v: %w", delta, err)
			}
			if err := covers(victims, delta); err != nil {
				return fmt.Errorf("shrink by %v: %w", delta, err)
			}
			entries = subtract(merged, victims)
		}
	}
	t0 = time.Now()
	err = c.be.release(entries)
	c.observe(kRelease, t0, i, opRecord{})
	if err != nil {
		return fmt.Errorf("release: %w", err)
	}
	return nil
}

// half is the grow delta of a cycle: ⌈v_j/2⌉ of every requested type.
func half(v model.Request) model.Request {
	d := make(model.Request, len(v))
	for j, x := range v {
		d[j] = (x + 1) / 2
	}
	return d
}

// covers checks that entries hold exactly want VMs per type.
func covers(entries []affinity.VMEntry, want model.Request) error {
	got := make([]int, len(want))
	for _, e := range entries {
		if e.Count <= 0 || int(e.Type) < 0 || int(e.Type) >= len(want) {
			return fmt.Errorf("bad entry %+v", e)
		}
		got[e.Type] += e.Count
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("got %v VMs per type, want %v", got, want)
		}
	}
	return nil
}

// subtract removes victims' counts from entries (cells may repeat in
// entries) and drops emptied cells.
func subtract(entries, victims []affinity.VMEntry) []affinity.VMEntry {
	out := append([]affinity.VMEntry(nil), entries...)
	for _, v := range victims {
		need := v.Count
		for i := range out {
			if need == 0 {
				break
			}
			if out[i].Node == v.Node && out[i].Type == v.Type && out[i].Count > 0 {
				k := min(need, out[i].Count)
				out[i].Count -= k
				need -= k
			}
		}
	}
	kept := out[:0]
	for _, e := range out {
		if e.Count > 0 {
			kept = append(kept, e)
		}
	}
	return kept
}

// window is one measured round of the closed loop.
type window struct {
	wall  float64 // s
	calls int
	lat   []float64
	rt    rtSnap
}

// runWindow runs every client's cycles concurrently.
func runWindow(cs []*client) (window, error) {
	var wg sync.WaitGroup
	for _, c := range cs {
		c.lat, c.calls = c.lat[:0], 0
	}
	runtime.GC()
	before := readRT()
	t0 := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go c.run(&wg)
	}
	wg.Wait()
	w := window{wall: time.Since(t0).Seconds(), rt: readRT().sub(before)}
	for _, c := range cs {
		if c.err != nil {
			return w, c.err
		}
		w.calls += c.calls
		w.lat = append(w.lat, c.lat...)
	}
	return w, nil
}

// twin is the direct counterpart of the service: a plant built and
// pre-filled the same way, driven through the calls the apply loop
// makes, on the caller's goroutine.
type twin struct {
	tp     *topology.Topology
	inv    *inventory.Inventory
	tidx   *affinity.TierIndex
	online *placement.OnlineHeuristic
	sp     affinity.SparseAlloc
	led    *ledger // per-call timing when non-nil
}

// newTwin builds and pre-fills the twin of pl.
//
//lint:owner singlewriter
func newTwin(pl *svcPlant) (*twin, error) {
	inv, err := inventory.NewFromMatrix(pl.caps)
	if err != nil {
		return nil, err
	}
	tidx, err := inv.AttachTierIndex(pl.tp)
	if err != nil {
		return nil, err
	}
	t := &twin{tp: pl.tp, inv: inv, tidx: tidx, online: &placement.OnlineHeuristic{}}
	for i, r := range pl.fillReq {
		if _, err := t.place(r); err != nil {
			return nil, fmt.Errorf("twin pre-fill placement %d: %w", i, err)
		}
	}
	if !reflect.DeepEqual(inv.AllocatedMatrix(), pl.base) {
		return nil, errors.New("twin pre-fill diverged from the service's")
	}
	return t, nil
}

//lint:owner singlewriter
func (t *twin) place(r model.Request) (service.Placement, error) {
	c := t.led.begin("placement.place")
	dc, center, err := t.online.PlaceSparse(t.tidx, r, &t.sp)
	t.led.end(c, -1, -1)
	if err != nil {
		return service.Placement{}, err
	}
	c = t.led.begin("inventory.allocate")
	err = t.inv.AllocateList(t.sp.Entries)
	t.led.end(c, -1, -1)
	if err != nil {
		return service.Placement{}, err
	}
	return service.Placement{Entries: append([]affinity.VMEntry(nil), t.sp.Entries...), DC: dc, Center: center}, nil
}

//lint:owner singlewriter
func (t *twin) grow(entries []affinity.VMEntry, delta model.Request) (service.Placement, error) {
	c := t.led.begin("placement.delta")
	dc, center, err := t.online.PlaceDeltaSparse(t.tidx, entries, delta, &t.sp)
	t.led.end(c, -1, -1)
	if err != nil {
		return service.Placement{}, err
	}
	c = t.led.begin("inventory.allocate")
	err = t.inv.AllocateList(t.sp.Entries)
	t.led.end(c, -1, -1)
	if err != nil {
		return service.Placement{}, err
	}
	return service.Placement{Entries: append([]affinity.VMEntry(nil), t.sp.Entries...), DC: dc, Center: center}, nil
}

//lint:owner singlewriter
func (t *twin) shrink(entries []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	c := t.led.begin("placement.shrink")
	victims, err := placement.ReleaseSubsetSparse(t.tp, entries, delta)
	t.led.end(c, -1, -1)
	if err != nil {
		return nil, err
	}
	c = t.led.begin("inventory.release_list")
	err = t.inv.ReleaseList(victims)
	t.led.end(c, -1, -1)
	return victims, err
}

//lint:owner singlewriter
func (t *twin) release(entries []affinity.VMEntry) error {
	c := t.led.begin("inventory.release_list")
	err := t.inv.ReleaseList(entries)
	t.led.end(c, -1, -1)
	return err
}
