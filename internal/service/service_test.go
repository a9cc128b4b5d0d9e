package service

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

// plant builds a PaperSimPlant inventory with uniform per-node capacity.
func plant(t *testing.T, types, perType int) (*topology.Topology, *inventory.Inventory) {
	t.Helper()
	topo := topology.PaperSimPlant()
	max := make([][]int, topo.Nodes())
	for i := range max {
		max[i] = make([]int, types)
		for j := range max[i] {
			max[i][j] = perType
		}
	}
	inv, err := inventory.NewFromMatrix(max)
	if err != nil {
		t.Fatalf("NewFromMatrix: %v", err)
	}
	return topo, inv
}

func TestServiceBasic(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	svc, err := New(Config{Topology: topo, Inventory: inv, QueueCap: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := svc.Place(model.Request{3, 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := entriesTotal(p.Entries); got != 4 {
		t.Fatalf("placement totals %d VMs, want 4", got)
	}
	// The commit must be visible through the RLock'd snapshot.
	if avail := inv.Available(); avail[0] != 60-3 || avail[1] != 60-1 {
		t.Fatalf("Available = %v after place, want [57 59]", avail)
	}
	if err := svc.Release(p.Entries); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after release, want [60 60]", avail)
	}
	// Oversized request with the queue disabled: immediate ErrInsufficient.
	if _, err := svc.Place(model.Request{1000, 0}); !errors.Is(err, placement.ErrInsufficient) {
		t.Fatalf("oversized Place err = %v, want ErrInsufficient", err)
	}
	// Releasing something never placed is a hard error, not a panic.
	if err := svc.Release([]affinity.VMEntry{{Node: 0, Type: 0, Count: 1}}); err == nil {
		t.Fatalf("release of unplaced VMs succeeded")
	}
	// A negative demand is malformed, not a shortfall: neither a place nor
	// a grow may ignore it.
	for _, r := range []model.Request{{-1, 2}, {-3, 0}} {
		if _, err := svc.Place(r); err == nil || errors.Is(err, placement.ErrInsufficient) {
			t.Fatalf("Place(%v) err = %v, want a malformed-request error", r, err)
		}
	}
	q, err := svc.Place(model.Request{1, 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if _, err := svc.Grow(q.Entries, model.Request{-1, 0}); err == nil || errors.Is(err, placement.ErrInsufficient) {
		t.Fatalf("Grow by -1 err = %v, want a malformed-request error", err)
	}
	if err := svc.Release(q.Entries); err != nil {
		t.Fatalf("Release: %v", err)
	}
	st := svc.Stats()
	if st.Placed != 2 || st.Released != 2 || st.Rejected != 1 || st.Grown != 0 {
		t.Fatalf("stats = %+v, want Placed=2 Released=2 Rejected=1 Grown=0", st)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after the refused ops, want [60 60]", avail)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := svc.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close err = %v, want ErrClosed", err)
	}
	if _, err := svc.Place(model.Request{1, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Place after Close err = %v, want ErrClosed", err)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

func TestServiceConfigErrors(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	if _, err := New(Config{Topology: topo}); err == nil {
		t.Fatalf("New without inventory succeeded")
	}
	if _, err := New(Config{Inventory: inv}); err == nil {
		t.Fatalf("New without topology succeeded")
	}
}

// TestServiceQueueWaits pins the wait-queue integration: a placement that
// does not fit blocks its caller until a release frees capacity, then
// completes with the freed VMs.
func TestServiceQueueWaits(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	// Give only node 0 any capacity so the second cluster cannot fit.
	if err := inv.SetCapacity(0, 0, 4); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first, err := svc.Place(model.Request{4})
	if err != nil {
		t.Fatalf("first Place: %v", err)
	}
	got := make(chan Placement, 1)
	go func() {
		p, err := svc.Place(model.Request{3})
		if err != nil {
			t.Errorf("queued Place: %v", err)
		}
		got <- p
	}()
	// The second placement must be parked, not answered.
	select {
	case <-got:
		t.Fatalf("queued Place completed before capacity freed")
	case <-time.After(50 * time.Millisecond):
	}
	if st := svc.Stats(); st.Queued != 1 {
		t.Fatalf("stats = %+v, want Queued=1", st)
	}
	if err := svc.Release(first.Entries); err != nil {
		t.Fatalf("Release: %v", err)
	}
	select {
	case p := <-got:
		if entriesTotal(p.Entries) != 3 {
			t.Fatalf("woken placement totals %d VMs, want 3", entriesTotal(p.Entries))
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("queued Place never woke after release")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServiceCloseFailsWaiters pins shutdown: a placement parked in the
// wait queue is answered with ErrClosed, not leaked.
func TestServiceCloseFailsWaiters(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	if err := inv.SetCapacity(0, 0, 1); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := svc.Place(model.Request{1}); err != nil {
		t.Fatalf("Place: %v", err)
	}
	errC := make(chan error, 1)
	go func() {
		_, err := svc.Place(model.Request{1})
		errC <- err
	}()
	for svc.Stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errC:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked Place err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("parked Place never answered after Close")
	}
}

// TestServiceRoundTripAllocs pins the round trip's allocations on an idle
// plant with obs off: a call applies its op on the caller's goroutine, so
// a Place+Release pair allocates only the returned entries, and a
// Grow+Shrink pair only the grow's entries and the shrink's victims.
func TestServiceRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	topo, inv := plant(t, 1, 0)
	// Node 0 holds a 4-VM cluster whole; node 1 takes its 2-VM grow, so
	// the shrink's DC-minimizing victims are exactly the grow's VMs and
	// every Grow+Shrink pair returns the plant to the same state.
	if err := inv.SetCapacity(0, 0, 4); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	if err := inv.SetCapacity(1, 0, 2); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = svc.Close() }()
	req := model.Request{3}
	placeRelease := func() {
		p, err := svc.Place(req)
		if err != nil {
			t.Fatalf("Place: %v", err)
		}
		if err := svc.Release(p.Entries); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	placeRelease() // warm the placer's scratch
	if avg := testing.AllocsPerRun(200, placeRelease); avg != 1 {
		t.Errorf("Place+Release allocates %.2f allocs/op, want 1 (the returned entries)", avg)
	}

	base, err := svc.Place(model.Request{4})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	delta := model.Request{2}
	g, err := svc.Grow(base.Entries, delta)
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	merged := mergeEntries(base.Entries, g.Entries)
	victims, err := svc.Shrink(merged, delta)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if !reflect.DeepEqual(victims, g.Entries) {
		t.Fatalf("shrink victims %v, want the grow's entries %v", victims, g.Entries)
	}
	growShrink := func() {
		if _, err := svc.Grow(base.Entries, delta); err != nil {
			t.Fatalf("Grow: %v", err)
		}
		if _, err := svc.Shrink(merged, delta); err != nil {
			t.Fatalf("Shrink: %v", err)
		}
	}
	if avg := testing.AllocsPerRun(200, growShrink); avg != 2 {
		t.Errorf("Grow+Shrink allocates %.2f allocs/op, want 2 (the grow's entries and the victims)", avg)
	}
}

// TestServiceCloseInFlight closes the service under eight clients cycling
// Place, Grow, Shrink and Release on a plant small enough that some
// placements park. Every call must return nil, ErrClosed or
// ErrInsufficient, every client must return (the test's -timeout catches
// a hang), and the inventory must hold exactly what the clients still
// hold.
func TestServiceCloseInFlight(t *testing.T) {
	topo, inv := plant(t, 2, 1) // 30 slots per type
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const clients = 8
	held := make([][]affinity.VMEntry, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			// ok reports whether the client goes on after a call.
			ok := func(call string, err error) bool {
				switch {
				case err == nil, errors.Is(err, placement.ErrInsufficient):
					return true
				case !errors.Is(err, ErrClosed):
					t.Errorf("client %d: %s: %v", w, call, err)
				}
				return false
			}
			for {
				// Any two clusters together may overflow the plant.
				p, err := svc.Place(model.Request{10 + rng.Intn(11), 10 + rng.Intn(11)})
				if !ok("Place", err) {
					return
				}
				held[w] = p.Entries
				g, err := svc.Grow(held[w], model.Request{1, 1})
				if !ok("Grow", err) {
					return
				}
				if err == nil {
					held[w] = mergeEntries(held[w], g.Entries)
					victims, err := svc.Shrink(held[w], model.Request{1, 1})
					if !ok("Shrink", err) {
						return
					}
					held[w] = subtractEntries(held[w], victims)
				}
				if !ok("Release", svc.Release(held[w])) {
					return
				}
				held[w] = nil
			}
		}(w)
	}
	for svc.Stats().Ops < 400 && !t.Failed() {
		time.Sleep(100 * time.Microsecond)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	checkLockCounts(t, svc)
	want := make([][]int, topo.Nodes())
	for i := range want {
		want[i] = make([]int, 2)
	}
	for _, entries := range held {
		for _, e := range entries {
			want[e.Node][e.Type] += e.Count
		}
	}
	if got := inv.AllocatedMatrix(); !reflect.DeepEqual(got, want) {
		t.Fatalf("inventory allocation diverges from what the clients hold:\ngot  %v\nwant %v", got, want)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := inv.TierIndex().CheckConsistent(); err != nil {
		t.Fatalf("tier index: %v", err)
	}
}

// TestServiceRaceHammer hammers concurrent Place/Release through the wait
// queue under -race: the writer lock's holder is the inventory's only
// writer, so the RemainingView/TierIndex aliasing that was racy under
// direct concurrent simulator access is now provably clean. Every request
// fits the empty plant, so whenever a placement waits, some other client
// holds (and will release) capacity — the hammer cannot deadlock.
func TestServiceRaceHammer(t *testing.T) {
	topo, inv := plant(t, 2, 2) // 60 slots per type
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const clients = 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(9000 + w)))
			for it := 0; it < iters; it++ {
				// Big enough that concurrent clusters contend for the
				// plant and some placements must wait in the queue.
				r := model.Request{5 + rng.Intn(16), 5 + rng.Intn(16)}
				p, err := svc.Place(r)
				if err != nil {
					t.Errorf("client %d iter %d: place %v: %v", w, it, r, err)
					return
				}
				if entriesTotal(p.Entries) != r[0]+r[1] {
					t.Errorf("client %d iter %d: placement totals %d, want %d",
						w, it, entriesTotal(p.Entries), r[0]+r[1])
					return
				}
				if err := svc.Release(p.Entries); err != nil {
					t.Errorf("client %d iter %d: release: %v", w, it, err)
					return
				}
			}
		}(w)
	}
	// Concurrent snapshot readers: only the RLock'd accessors, never the
	// view — the service owns that.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := inv.Remaining()
			for i := range snap {
				for _, v := range snap[i] {
					if v < 0 {
						t.Errorf("negative remaining in snapshot: %v", snap[i])
						return
					}
				}
			}
			_ = svc.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	checkLockCounts(t, svc)
	st := svc.Stats()
	if int(st.Placed) != clients*iters || int(st.Released) != clients*iters {
		t.Fatalf("stats = %+v, want %d placed and released", st, clients*iters)
	}
	for j, a := range inv.Available() {
		if a != 60 {
			t.Fatalf("Available[%d] = %d after hammer, want 60", j, a)
		}
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := inv.TierIndex().CheckConsistent(); err != nil {
		t.Fatalf("tier index after hammer: %v", err)
	}
}

// checkLockCounts fails unless every caller that waited in lock or
// yielded in unlock has left both counts; call it once all clients have
// returned.
func checkLockCounts(t *testing.T, svc *Service) {
	t.Helper()
	if b, y := svc.blocked.Load(), svc.yielded.Load(); b != 0 || y != 0 {
		t.Fatalf("after the clients returned: %d blocked, %d yielded, want 0 and 0", b, y)
	}
}

func entriesTotal(entries []affinity.VMEntry) int {
	n := 0
	for _, e := range entries {
		n += e.Count
	}
	return n
}
