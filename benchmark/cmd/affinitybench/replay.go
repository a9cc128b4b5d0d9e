package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
)

// event is one line of the streamed obs trace, with the union of the
// fields the simulator emits.
type event struct {
	T         float64 `json:"t"`
	Kind      string  `json:"kind"`
	Req       int     `json:"req"`
	Cluster   int     `json:"cluster"`
	Center    int     `json:"center"`
	DC        float64 `json:"dc"`
	VMs       int     `json:"vms"`
	Lost      int     `json:"lost"`
	Survivors int     `json:"survivors"`
	Nodes     []int   `json:"nodes"`
	Method    string  `json:"method"`
}

// live is a replayed running cluster.
type live struct {
	id       int
	alloc    affinity.Allocation
	placedAt float64
	departEv *eventsim.Event
	growVec  model.Request // set while a shrink is owed
	shrinkEv *eventsim.Event
	// Evacuation plan computed at "degraded", consumed by "recover" or
	// contradicted by "requeue".
	degraded bool
	plan     affinity.Allocation
	planErr  error
}

// replayer applies a recorded soak event stream to a fresh copy of the
// plant through the same public calls the simulator makes, timing each
// call. It makes no decisions of its own: every placement, grow, shrink
// and evacuation must reproduce what the trace recorded, and the replay
// fails on the first mismatch. Failed placement attempts (a drain that
// takes a request the placer then cannot fit) and deferred-grow retries
// leave no event, so they are not replayed.
type replayer struct {
	tp      *topology.Topology
	inv     *inventory.Inventory
	tidx    *affinity.TierIndex
	online  *placement.OnlineHeuristic
	reqs    []model.TimedRequest
	elastic cloudsim.ElasticConfig

	live    map[int]*live // by request ID
	nextID  int
	dead    []topology.NodeID
	sp, spd affinity.SparseAlloc

	// The harness-owned queue and engine stand in for the simulator's:
	// the queue mirrors admissions and drains, the engine holds one
	// departure (and owed shrink) per live cluster and dispatches one
	// event per replayed event.
	q       *queue.Queue
	queued  map[model.RequestID]bool
	taken   []model.TimedRequest // last drain's take, not yet placed
	front   int                  // request whose next admission goes to the head, or -1
	eng     *eventsim.Engine
	noop    func(float64)
	lenSum  float64
	drains  int
	pendSum float64

	led  *ledger
	root int

	kinds             map[string]int
	places, multinode int
	err               error // first failure of a step that cannot return one
}

// newReplayer builds the fresh plant.
//
//lint:owner singlewriter
func newReplayer(tp *topology.Topology, caps [][]int, reqs []model.TimedRequest, elastic cloudsim.ElasticConfig, led *ledger) (*replayer, error) {
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		return nil, err
	}
	tidx, err := inv.AttachTierIndex(tp)
	if err != nil {
		return nil, err
	}
	return &replayer{
		tp: tp, inv: inv, tidx: tidx, online: &placement.OnlineHeuristic{},
		reqs: reqs, elastic: elastic,
		live:   map[int]*live{},
		q:      queue.New(queue.FIFO, 0),
		queued: map[model.RequestID]bool{},
		eng:    eventsim.New(),
		noop:   func(float64) {},
		led:    led,
		kinds:  map[string]int{},
		front:  -1,
	}, nil
}

// replay applies every event of r, then checks the end state against
// the simulator's metrics m.
func (rp *replayer) replay(r io.Reader, m *cloudsim.Metrics) error {
	rp.root = rp.led.id()
	start := rp.led.now()
	dec := json.NewDecoder(r)
	for n := 1; ; n++ {
		var ev event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("event %d: %w", n, err)
		}
		if err := rp.apply(&ev); err != nil || rp.err != nil {
			if err == nil {
				err = rp.err
			}
			return fmt.Errorf("event %d (%s at t=%v, req %d): %w", n, ev.Kind, ev.T, ev.Req, err)
		}
	}
	rp.flushTaken()
	rp.led.add(rp.root, -1, "replay", -1, start, rp.led.now())
	if rp.err != nil {
		return rp.err
	}
	return rp.finish(m)
}

// finish checks the end state: every cluster departed, the queue holds
// exactly the unplaced requests, placements minus teardowns equal the
// served count, and the inventory and its tier index are consistent.
func (rp *replayer) finish(m *cloudsim.Metrics) error {
	if len(rp.live) != 0 {
		return fmt.Errorf("%d clusters still live after the last event", len(rp.live))
	}
	if rp.q.Len() != m.Unplaced {
		return fmt.Errorf("replayed queue holds %d requests, simulator left %d unplaced", rp.q.Len(), m.Unplaced)
	}
	if got := rp.places - rp.kinds["requeue"]; got != m.Served {
		return fmt.Errorf("replayed %d placements − %d teardowns = %d, simulator served %d",
			rp.places, rp.kinds["requeue"], got, m.Served)
	}
	if err := rp.inv.CheckInvariants(); err != nil {
		return err
	}
	return rp.tidx.CheckConsistent()
}

// apply replays one event.
//
//lint:owner singlewriter
func (rp *replayer) apply(ev *event) error {
	rp.kinds[ev.Kind]++
	rp.dispatch(ev)
	switch ev.Kind {
	case "place":
		return rp.place(ev)
	case "depart":
		return rp.depart(ev)
	case "resize_grow":
		return rp.grow(ev)
	case "resize_shrink":
		return rp.shrink(ev)
	case "node_crash", "rack_outage":
		// A fault event carries its own "kind" field after the event
		// kind, and a JSON decoder keeps the last of the two.
		rp.dead = rp.dead[:0]
		for _, n := range ev.Nodes {
			c := rp.led.begin("inventory.fail_restore")
			_, err := rp.inv.FailNode(topology.NodeID(n))
			rp.led.end(c, rp.root, -1)
			if err != nil {
				return err
			}
			rp.dead = append(rp.dead, topology.NodeID(n))
		}
	case "repair":
		for _, n := range ev.Nodes {
			c := rp.led.begin("inventory.fail_restore")
			err := rp.inv.RestoreNode(topology.NodeID(n))
			rp.led.end(c, rp.root, -1)
			if err != nil {
				return err
			}
		}
		rp.drain()
	case "degraded":
		return rp.degraded(ev)
	case "recover":
		if ev.Method == "evacuate" {
			return rp.evacuate(ev)
		}
	case "requeue":
		return rp.teardown(ev)
	case "retries_exhausted":
		rp.front = ev.Req
	case "queue_admit":
		return rp.admit(ev)
	case "queue_reject", "resize_defer", "resize_reject", "resize_expire":
		// Decisions without a state change outside the simulator.
	default:
		return fmt.Errorf("unexpected event kind %q", ev.Kind)
	}
	return nil
}

// dispatch stands in for the simulator's event loop: one push and one
// removal on the harness engine per replayed event.
func (rp *replayer) dispatch(ev *event) {
	rp.pendSum += float64(rp.eng.Pending())
	c := rp.led.begin("eventsim.op")
	e, err := rp.eng.At(ev.T, rp.noop)
	if err == nil {
		rp.eng.Cancel(e)
	}
	rp.led.end(c, rp.root, ev.Req)
}

// events is the number of events replayed.
func (rp *replayer) events() int {
	n := 0
	for _, k := range rp.kinds {
		n += k
	}
	return n
}

func (rp *replayer) request(id int) (model.TimedRequest, error) {
	if id < 0 || id >= len(rp.reqs) {
		return model.TimedRequest{}, fmt.Errorf("unknown request %d", id)
	}
	return rp.reqs[id], nil
}

func (rp *replayer) cluster(ev *event) (*live, error) {
	c := rp.live[ev.Req]
	if c == nil {
		return nil, fmt.Errorf("request %d has no live cluster", ev.Req)
	}
	return c, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (rp *replayer) place(ev *event) error {
	r, err := rp.request(ev.Req)
	if err != nil {
		return err
	}
	if rp.live[ev.Req] != nil {
		return fmt.Errorf("request %d placed twice", ev.Req)
	}
	if err := rp.consumeTaken(r.ID); err != nil {
		return err
	}
	c := rp.led.begin("placement.place")
	dc, center, err := rp.online.PlaceSparse(rp.tidx, r.Vector, &rp.sp)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	if int(center) != ev.Center || !sameBits(dc, ev.DC) {
		return fmt.Errorf("placement gave center %d dc %v, trace has center %d dc %v", center, dc, ev.Center, ev.DC)
	}
	c = rp.led.begin("inventory.allocate")
	err = rp.inv.AllocateList(rp.sp.Entries)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	c = rp.led.begin("affinity.to_dense")
	alloc := rp.sp.ToDense()
	rp.led.end(c, rp.root, ev.Req)
	rp.places++
	if !singleNode(rp.sp.Entries) {
		rp.multinode++
	}
	cl := &live{id: rp.nextID, alloc: alloc, placedAt: ev.T}
	rp.nextID++
	c = rp.led.begin("eventsim.op")
	cl.departEv, err = rp.eng.At(ev.T+r.Hold, rp.noop)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	rp.live[ev.Req] = cl
	return nil
}

func singleNode(es []affinity.VMEntry) bool {
	for _, e := range es {
		if e.Node != es[0].Node {
			return false
		}
	}
	return true
}

// cancel removes a cluster's scheduled events from the harness engine.
func (rp *replayer) cancel(cl *live, req int) {
	for _, e := range []*eventsim.Event{cl.departEv, cl.shrinkEv} {
		if e != nil {
			c := rp.led.begin("eventsim.op")
			rp.eng.Cancel(e)
			rp.led.end(c, rp.root, req)
		}
	}
	cl.departEv, cl.shrinkEv = nil, nil
}

func (rp *replayer) depart(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	rp.cancel(cl, ev.Req)
	c := rp.led.begin("affinity.distance")
	d, _ := cl.alloc.Distance(rp.tp)
	rp.led.end(c, rp.root, ev.Req)
	if !sameBits(d, ev.DC) {
		return fmt.Errorf("departing cluster has dc %v, trace has %v", d, ev.DC)
	}
	c = rp.led.begin("inventory.release")
	err = rp.inv.Release([][]int(cl.alloc))
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	delete(rp.live, ev.Req)
	rp.drain()
	return nil
}

// growVec is the simulator's grow sizing: ceil(GrowFactor·v_j) for every
// requested type.
func (rp *replayer) growVec(v model.Request) model.Request {
	g := make(model.Request, len(v))
	for j, x := range v {
		if x > 0 {
			g[j] = int(math.Ceil(rp.elastic.GrowFactor * float64(x)))
		}
	}
	return g
}

func (rp *replayer) grow(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	if cl.id != ev.Cluster {
		return fmt.Errorf("trace grows cluster %d, replay holds request %d as cluster %d", ev.Cluster, ev.Req, cl.id)
	}
	r, err := rp.request(ev.Req)
	if err != nil {
		return err
	}
	g := rp.growVec(r.Vector)
	c := rp.led.begin("affinity.sparse")
	cur := cl.alloc.Sparse()
	rp.led.end(c, rp.root, ev.Req)
	c = rp.led.begin("placement.delta")
	dc, center, err := rp.online.PlaceDeltaSparse(rp.tidx, cur, g, &rp.spd)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	if int(center) != ev.Center || !sameBits(dc, ev.DC) {
		return fmt.Errorf("grow gave center %d dc %v, trace has center %d dc %v", center, dc, ev.Center, ev.DC)
	}
	c = rp.led.begin("inventory.allocate")
	err = rp.inv.AllocateList(rp.spd.Entries)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	added := 0
	for _, e := range rp.spd.Entries {
		cl.alloc[e.Node][e.Type] += e.Count
		added += e.Count
	}
	if added != ev.VMs {
		return fmt.Errorf("grow added %d VMs, trace has %d", added, ev.VMs)
	}
	cl.growVec = g
	c = rp.led.begin("eventsim.op")
	cl.shrinkEv, err = rp.eng.At(cl.placedAt+rp.elastic.MapFrac*r.Hold, rp.noop)
	rp.led.end(c, rp.root, ev.Req)
	return err
}

func (rp *replayer) shrink(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	if cl.growVec == nil {
		return fmt.Errorf("shrink of cluster %d that never grew", cl.id)
	}
	c := rp.led.begin("placement.shrink")
	victims, err := placement.ReleaseSubset(rp.tp, cl.alloc, cl.growVec)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	c = rp.led.begin("inventory.release_list")
	err = rp.inv.ReleaseList(victims)
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	removed := 0
	for _, e := range victims {
		removed += e.Count
	}
	c = rp.led.begin("affinity.distance")
	d, _ := cl.alloc.Distance(rp.tp)
	rp.led.end(c, rp.root, ev.Req)
	if removed != ev.VMs || !sameBits(d, ev.DC) {
		return fmt.Errorf("shrink removed %d VMs to dc %v, trace has %d and %v", removed, d, ev.VMs, ev.DC)
	}
	if cl.shrinkEv != nil {
		c = rp.led.begin("eventsim.op")
		rp.eng.Cancel(cl.shrinkEv)
		rp.led.end(c, rp.root, ev.Req)
	}
	cl.growVec, cl.shrinkEv = nil, nil
	rp.drain()
	return nil
}

// degraded strips the cluster's VMs on the nodes of the last fault and,
// when some survive, plans their evacuation the way the simulator does.
func (rp *replayer) degraded(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	lost := make(model.Request, len(cl.alloc[0]))
	n := 0
	for _, node := range rp.dead {
		for j, k := range cl.alloc[node] {
			lost[j] += k
			n += k
			cl.alloc[node][j] = 0
		}
	}
	if n != ev.Lost || cl.alloc.TotalVMs() != ev.Survivors {
		return fmt.Errorf("degraded cluster lost %d and kept %d VMs, trace has %d and %d",
			n, cl.alloc.TotalVMs(), ev.Lost, ev.Survivors)
	}
	cl.degraded, cl.plan, cl.planErr = true, nil, nil
	if ev.Survivors > 0 {
		c := rp.led.begin("migration.plan")
		cl.plan, cl.planErr = migration.PlanReplacement(rp.tp, rp.inv.RemainingView(), cl.alloc, lost)
		rp.led.end(c, rp.root, ev.Req)
		if cl.planErr != nil && !errors.Is(cl.planErr, migration.ErrNoCapacity) {
			return cl.planErr
		}
	}
	return nil
}

func (rp *replayer) evacuate(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	if !cl.degraded || cl.plan == nil {
		return fmt.Errorf("trace evacuates cluster %d, replay found no feasible plan", cl.id)
	}
	c := rp.led.begin("inventory.allocate_dense")
	err = rp.inv.Allocate([][]int(cl.plan))
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	for n, row := range cl.plan {
		for j, k := range row {
			cl.alloc[n][j] += k
		}
	}
	cl.degraded, cl.plan = false, nil
	return nil
}

// teardown releases the survivors of a cluster the simulator could not
// evacuate.
func (rp *replayer) teardown(ev *event) error {
	cl, err := rp.cluster(ev)
	if err != nil {
		return err
	}
	if !cl.degraded || cl.plan != nil {
		return fmt.Errorf("trace tears down cluster %d, replay planned its evacuation", cl.id)
	}
	rp.cancel(cl, ev.Req)
	c := rp.led.begin("inventory.release")
	err = rp.inv.Release([][]int(cl.alloc))
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	delete(rp.live, ev.Req)
	return nil
}

func (rp *replayer) admit(ev *event) error {
	r, err := rp.request(ev.Req)
	if err != nil {
		return err
	}
	rp.flushTaken()
	c := rp.led.begin("queue.enqueue")
	if rp.front == ev.Req {
		err = rp.q.EnqueueFront(r)
		rp.front = -1
	} else {
		err = rp.q.Enqueue(r)
	}
	rp.led.end(c, rp.root, ev.Req)
	if err != nil {
		return err
	}
	rp.queued[r.ID] = true
	return nil
}

// drain mirrors the simulator's drain after freed capacity: take what
// the availability admits. The simulator places the taken requests next
// (their "place" events consume the take) and puts the ones it cannot
// place back at the tail, which flushTaken repeats before the queue is
// touched again.
func (rp *replayer) drain() {
	rp.flushTaken()
	rp.lenSum += float64(rp.q.Len())
	rp.drains++
	c := rp.led.begin("queue.drain")
	rp.taken = rp.q.GetRequests(rp.inv.Available())
	rp.led.end(c, rp.root, -1)
	for _, r := range rp.taken {
		delete(rp.queued, r.ID)
	}
}

func (rp *replayer) flushTaken() {
	for _, r := range rp.taken {
		if r.ID < 0 {
			continue
		}
		if err := rp.q.Enqueue(r); err != nil && rp.err == nil {
			rp.err = fmt.Errorf("putting request %d back: %w", r.ID, err)
		}
		rp.queued[r.ID] = true
	}
	rp.taken = rp.taken[:0]
}

// consumeTaken marks a drained request as placed. A placement of a
// request that is still waiting means the simulator's drain took
// something the replayed drain did not.
func (rp *replayer) consumeTaken(id model.RequestID) error {
	for i := range rp.taken {
		if rp.taken[i].ID == id {
			rp.taken[i].ID = -1
			return nil
		}
	}
	if rp.queued[id] {
		return fmt.Errorf("request %d placed while the replayed queue still holds it", id)
	}
	return nil
}
