// Package service is the long-lived placement front-end of the simulated
// cloud: one Service owns the inventory (with its attached tier index),
// the online placer, and the wait queue, and serves placement and release
// requests from many concurrent callers.
//
// Each call applies its own operation on the caller's goroutine under one
// writer lock. Whoever holds the lock is the inventory's only writer and
// the only reader of RemainingView and the attached TierIndex, which is
// what makes their lock-free aliasing safe (see the inventory package
// comment; the race-mode hammer test pins this). A call returns as soon
// as its operation is applied. Only a placement that must wait gets a
// waiter record with a reply channel: one parked in the wait queue until
// a release frees capacity. A caller that releases the lock while another
// waits to run hands it the processor (see unlock), so contended callers
// share the wait instead of one running on while the other stalls.
//
// Operations are stamped with arrival sequence numbers in lock order and
// applied in that order, the paper's online setting. A run is
// deterministic given that order, but the order itself depends on how
// the callers are scheduled.
package service

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
)

// ErrClosed is returned for requests submitted to (or still waiting in) a
// closed service.
var ErrClosed = errors.New("service: closed")

// Config describes one placement service.
type Config struct {
	// Topology and Inventory are required and must agree on node count.
	// The service takes ownership of the inventory: after New, all
	// mutations must go through the service's calls, and only the RLock'd
	// snapshots (Remaining, Available, CheckInvariants, ...) may be used
	// from other goroutines.
	Topology  *topology.Topology
	Inventory *inventory.Inventory
	// QueueCap configures the wait queue for placements that do not
	// currently fit: 0 = unbounded, > 0 = bounded, -1 = disabled (such
	// placements fail immediately with ErrInsufficient). A waiting
	// placement blocks its caller until a release frees enough capacity.
	QueueCap int
	// Obs, when non-nil, receives service telemetry, and the service's
	// placer its placement metrics. Events are stamped with the
	// operation's arrival sequence number as virtual time.
	Obs *obs.Registry
}

// Placement is one committed placement, returned to the caller.
type Placement struct {
	// Entries is the committed sparse allocation — the caller passes it
	// back to Release. The slice is the caller's to keep.
	Entries []affinity.VMEntry
	// DC is the allocation's data-center distance; Center its central
	// node.
	DC     float64
	Center topology.NodeID
}

// Stats is a point-in-time snapshot of service activity. Batches and
// MaxBatch are kept only because the benchmark under benchmark/ reads
// them: every lock pass applies one operation, so Batches equals Ops and
// MaxBatch is 1 once any operation has applied.
type Stats struct {
	Ops      uint64 // operations applied
	Batches  uint64 // lock passes that applied operations
	MaxBatch uint64 // most operations one lock pass applied
	Placed   uint64 // successful placements
	Released uint64 // successful releases
	Queued   uint64 // placements that waited in the queue
	Rejected uint64 // placements refused (queue disabled or full)
	Grown    uint64 // successful cluster grows
	Shrunk   uint64 // successful cluster shrinks
}

type opKind uint8

const (
	opPlace opKind = iota
	opRelease
	opGrow
	opShrink
)

// op is one request. A caller's op lives on its own stack and nothing
// retains a pointer to it; a placement that must wait is copied into a
// waiter.
type op struct {
	kind    opKind
	seq     uint64
	req     model.Request
	entries []affinity.VMEntry
}

// waiter is a placement parked in the wait queue until a later lock
// holder places or refuses it. Its caller blocks on done, which has room
// for the one answer it ever receives, so the lock holder's send never
// blocks.
type waiter struct {
	op
	done chan result
}

type result struct {
	p   Placement
	err error
}

// Service is a concurrent placement front-end; create with New, stop with
// Close.
type Service struct {
	cfg    Config
	topo   *topology.Topology
	inv    *inventory.Inventory
	online *placement.OnlineHeuristic
	tidx   *affinity.TierIndex

	// blocked counts the callers waiting in lock, yielded those that
	// yielded in unlock and have not run since. Both are read without mu.
	blocked, yielded atomic.Int32
	// mu is the writer lock, taken through lock and unlock. Its holder is
	// the inventory's single writer and the tier index's only reader; it
	// guards every field below.
	mu      sync.Mutex
	sp      affinity.SparseAlloc // placement scratch
	closed  bool
	arrSeq  uint64             // next arrival seq
	wait    *queue.Queue       // nil when the queue is disabled
	waiters map[uint64]*waiter // seq → placement parked in the wait queue
	st      Stats

	mPlaced, mReleased, mQueued, mRejected *obs.Counter
	mDC                                    *obs.Histogram
	// Delta-op counters are registered lazily on first use, so services
	// that never resize keep their exact metric snapshots.
	mGrown, mShrunk *obs.Counter
}

// New validates the configuration and attaches a tier index to the
// inventory. The returned service should be Closed, which answers every
// caller still waiting.
func New(cfg Config) (*Service, error) {
	if cfg.Topology == nil || cfg.Inventory == nil {
		return nil, errors.New("service: Topology and Inventory are required")
	}
	tidx, err := cfg.Inventory.AttachTierIndex(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("service: attaching tier index: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		topo:    cfg.Topology,
		inv:     cfg.Inventory,
		online:  &placement.OnlineHeuristic{Obs: cfg.Obs},
		tidx:    tidx,
		waiters: make(map[uint64]*waiter),
	}
	if cfg.QueueCap >= 0 {
		s.wait = queue.New(queue.FIFO, cfg.QueueCap)
		s.wait.Instrument(cfg.Obs)
	}
	s.mPlaced = cfg.Obs.Counter("service.placed")
	s.mReleased = cfg.Obs.Counter("service.released")
	s.mQueued = cfg.Obs.Counter("service.queued")
	s.mRejected = cfg.Obs.Counter("service.rejected")
	s.mDC = cfg.Obs.Histogram("service.dc", 0, 200, 20)
	return s, nil
}

// Place provisions one virtual cluster, returning once the service
// commits (or refuses) it. The request vector must span the inventory's
// full type dimension. When the cluster does not currently fit and the
// wait queue is enabled, the call blocks until a release frees enough
// capacity; with the queue disabled or full it fails with
// placement.ErrInsufficient (test with errors.Is).
func (s *Service) Place(r model.Request) (Placement, error) {
	return s.do(op{kind: opPlace, req: r})
}

// Release returns a placement's VMs to the inventory and wakes whatever
// queued placements now fit. Entries must be exactly the slice of a prior
// Placement (or its ToDense-equivalent sparse form).
func (s *Service) Release(entries []affinity.VMEntry) error {
	_, err := s.do(op{kind: opRelease, entries: entries})
	return err
}

// Grow extends a previously committed cluster by delta VMs per type,
// placed near the cluster's current center under the same writer lock as
// Place (placement.PlaceDeltaSparse semantics: the merged DC and center
// are returned, and the returned Entries cover only the added VMs — keep
// them, or fold them into the cluster's own entries, for the eventual
// Release). entries must describe VMs the service committed and still
// holds; the slice is only read and must not be mutated until the call
// returns. A grow that does not currently fit fails immediately with
// placement.ErrInsufficient — deadline-driven callers defer and retry
// rather than park in the wait queue.
func (s *Service) Grow(entries []affinity.VMEntry, delta model.Request) (Placement, error) {
	return s.do(op{kind: opGrow, entries: entries, req: delta})
}

// Shrink gives back delta VMs per type from a previously committed
// cluster, picking the victims that leave the least DC(C)
// (placement.ReleaseSubsetSparse), and wakes whatever queued placements
// the freed capacity now fits. It returns the victim entries — the caller
// must subtract them from its record of the cluster. entries is only
// read and must not be mutated until the call returns.
func (s *Service) Shrink(entries []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	p, err := s.do(op{kind: opShrink, entries: entries, req: delta})
	return p.Entries, err
}

// Stats snapshots the service's activity counters.
func (s *Service) Stats() Stats {
	s.lock()
	defer s.unlock()
	return s.st
}

// Close stops the service: it fails every placement still parked in the
// wait queue with ErrClosed, in ascending seq order so shutdown is
// reproducible, and every later call with ErrClosed. Closing twice
// returns ErrClosed.
func (s *Service) Close() error {
	s.lock()
	defer s.unlock()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	seqs := make([]uint64, 0, len(s.waiters))
	for seq := range s.waiters {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		s.waiters[seq].done <- result{err: ErrClosed}
		delete(s.waiters, seq)
	}
	return nil
}

// lock takes the writer lock, counting the caller in blocked while it
// waits.
func (s *Service) lock() {
	if s.mu.TryLock() {
		return
	}
	s.blocked.Add(1)
	s.mu.Lock()
	s.blocked.Add(-1)
}

// unlock releases the writer lock, then yields the processor if another
// caller is waiting to run on it: one blocked in lock, which Unlock has
// just woken, or one that yielded here and has not run since. The Go
// scheduler queues a woken goroutine in its waker's run-next slot, which
// another processor steals only after a sleep that Linux timer slack
// stretches to about 50 µs; a waker that kept running would hold the
// woken caller that long for an operation of about a microsecond. The
// yielder waits in the global run queue, where an idle processor takes
// it at once, unless that processor is itself in the sleep. The second
// condition covers that case: the caller now running yields back at its
// next unlock, so the two take turns on one processor until the other
// is free.
func (s *Service) unlock() {
	s.mu.Unlock()
	if s.blocked.Load() > 0 || s.yielded.Load() > 0 {
		s.yielded.Add(1)
		runtime.Gosched()
		s.yielded.Add(-1)
	}
}

// do applies o and returns its answer, first waiting for it when o is a
// placement parked in the wait queue.
func (s *Service) do(o op) (Placement, error) {
	r, w := s.apply(o)
	if w != nil {
		r = <-w.done
	}
	return r.p, r.err
}

// apply takes the writer lock, stamps o with the next arrival seq and
// applies it on the caller's goroutine. It returns o's answer, or o's
// waiter when o is a placement parked in the wait queue.
func (s *Service) apply(o op) (result, *waiter) {
	s.lock()
	defer s.unlock()
	if s.closed {
		return result{err: ErrClosed}, nil
	}
	o.seq = s.arrSeq
	s.arrSeq++
	s.st.Ops++
	s.st.Batches++
	s.st.MaxBatch = 1
	switch o.kind {
	case opRelease:
		return s.applyRelease(&o), nil
	case opGrow:
		return s.applyGrow(&o), nil
	case opShrink:
		return s.applyShrink(&o), nil
	default:
		return s.applyPlace(&o)
	}
}

// applyPlace runs the allocation-free hot path: indexed sparse placement,
// then an O(entries) commit. Only ErrInsufficient means "does not fit";
// anything else is reported to the caller as a hard error.
func (s *Service) applyPlace(o *op) (result, *waiter) {
	dc, center, err := s.online.PlaceSparse(s.tidx, o.req, &s.sp)
	if err != nil {
		if errors.Is(err, placement.ErrInsufficient) {
			return s.parkWaiter(o)
		}
		return result{err: err}, nil
	}
	if err := s.inv.AllocateList(s.sp.Entries); err != nil {
		return result{err: fmt.Errorf("service: committing placement %d: %w", o.seq, err)}, nil
	}
	return s.finishPlace(o.seq, append([]affinity.VMEntry(nil), s.sp.Entries...), dc, center), nil
}

// applyGrow extends a live cluster with the delta scan: indexed sparse
// delta placement around the cluster's current center, then the same
// O(entries) commit as a placement. Grows never park in the wait queue —
// they are deadline-driven at the caller, so "does not fit" is answered
// immediately with ErrInsufficient.
func (s *Service) applyGrow(o *op) result {
	dc, center, err := s.online.PlaceDeltaSparse(s.tidx, o.entries, o.req, &s.sp)
	if err != nil {
		return result{err: fmt.Errorf("service: grow %d: %w", o.seq, err)}
	}
	if err := s.inv.AllocateList(s.sp.Entries); err != nil {
		return result{err: fmt.Errorf("service: committing grow %d: %w", o.seq, err)}
	}
	s.st.Grown++
	if s.mGrown == nil {
		s.mGrown = s.cfg.Obs.Counter("service.grown")
	}
	s.mGrown.Inc()
	s.mDC.Observe(dc)
	s.cfg.Obs.Emit("grow", float64(o.seq),
		obs.F("req", int(o.seq)),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	return result{p: Placement{Entries: append([]affinity.VMEntry(nil), s.sp.Entries...), DC: dc, Center: center}}
}

// applyShrink releases the DC-minimizing victims of a live cluster and
// offers the freed capacity to the wait queue, like a release.
func (s *Service) applyShrink(o *op) result {
	victims, err := placement.ReleaseSubsetSparse(s.topo, o.entries, o.req)
	if err != nil {
		return result{err: fmt.Errorf("service: shrink %d: %w", o.seq, err)}
	}
	if err := s.inv.ReleaseList(victims); err != nil {
		return result{err: fmt.Errorf("service: committing shrink %d: %w", o.seq, err)}
	}
	s.st.Shrunk++
	if s.mShrunk == nil {
		s.mShrunk = s.cfg.Obs.Counter("service.shrunk")
	}
	s.mShrunk.Inc()
	s.cfg.Obs.Emit("shrink", float64(o.seq), obs.F("req", int(o.seq)))
	s.drainWaiters()
	return result{p: Placement{Entries: victims}}
}

// parkWaiter queues a placement that does not currently fit, or refuses it
// when the queue is disabled or full. A queued placement gets a waiter
// record, the only place the service makes a reply channel.
func (s *Service) parkWaiter(o *op) (result, *waiter) {
	if s.wait == nil {
		s.st.Rejected++
		s.mRejected.Inc()
		return result{err: fmt.Errorf("service: request %d: %w", o.seq, placement.ErrInsufficient)}, nil
	}
	tr := model.TimedRequest{ID: model.RequestID(o.seq), Vector: o.req, Arrival: float64(o.seq)}
	if err := s.wait.Enqueue(tr); err != nil {
		s.st.Rejected++
		s.mRejected.Inc()
		return result{err: fmt.Errorf("service: request %d refused: %w (%v)", o.seq, placement.ErrInsufficient, err)}, nil
	}
	w := &waiter{op: *o, done: make(chan result, 1)}
	s.waiters[o.seq] = w
	s.st.Queued++
	s.mQueued.Inc()
	s.cfg.Obs.Emit("queue_admit", float64(o.seq), obs.F("req", int(o.seq)))
	return result{}, w
}

func (s *Service) applyRelease(o *op) result {
	if err := s.inv.ReleaseList(o.entries); err != nil {
		return result{err: fmt.Errorf("service: release %d: %w", o.seq, err)}
	}
	s.st.Released++
	s.mReleased.Inc()
	s.cfg.Obs.Emit("release", float64(o.seq), obs.F("req", int(o.seq)))
	s.drainWaiters()
	return result{}
}

// drainWaiters serves every queued placement the freed capacity can now
// admit, answering each on its reply channel. GetRequests only takes
// requests whose aggregate demand fits the current availability, and
// that is exactly the indexed scan's admission test, so placement here
// cannot fail for capacity reasons.
func (s *Service) drainWaiters() {
	if s.wait == nil || s.wait.Len() == 0 {
		return
	}
	for _, tr := range s.wait.GetRequests(s.inv.Available()) {
		seq := uint64(tr.ID)
		w := s.waiters[seq]
		delete(s.waiters, seq)
		if w == nil {
			continue
		}
		dc, center, err := s.online.PlaceSparse(s.tidx, w.req, &s.sp)
		if err == nil {
			err = s.inv.AllocateList(s.sp.Entries)
		}
		if err != nil {
			w.done <- result{err: fmt.Errorf("service: draining request %d: %w", seq, err)}
			continue
		}
		w.done <- s.finishPlace(seq, append([]affinity.VMEntry(nil), s.sp.Entries...), dc, center)
	}
}

// finishPlace records a committed placement and returns its answer,
// stamping its event with the op's seq as virtual time.
func (s *Service) finishPlace(seq uint64, entries []affinity.VMEntry, dc float64, center topology.NodeID) result {
	s.st.Placed++
	s.mPlaced.Inc()
	s.mDC.Observe(dc)
	s.cfg.Obs.Emit("place", float64(seq),
		obs.F("req", int(seq)),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	return result{p: Placement{Entries: entries, DC: dc, Center: center}}
}
