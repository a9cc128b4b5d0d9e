package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
)

// mergeEntries folds grow entries into a cluster's record, the way a
// caller tracking its cluster across resizes would.
func mergeEntries(cur, add []affinity.VMEntry) []affinity.VMEntry {
	out := append([]affinity.VMEntry(nil), cur...)
next:
	for _, e := range add {
		for i := range out {
			if out[i].Node == e.Node && out[i].Type == e.Type {
				out[i].Count += e.Count
				continue next
			}
		}
		out = append(out, e)
	}
	return out
}

func subtractEntries(cur, victims []affinity.VMEntry) []affinity.VMEntry {
	out := append([]affinity.VMEntry(nil), cur...)
	for _, v := range victims {
		for i := range out {
			if out[i].Node == v.Node && out[i].Type == v.Type {
				out[i].Count -= v.Count
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

func TestServiceGrowShrink(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	svc, err := New(Config{Topology: topo, Inventory: inv, QueueCap: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base, err := svc.Place(model.Request{4, 2})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	grow, err := svc.Grow(base.Entries, model.Request{2, 1})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	if got := entriesTotal(grow.Entries); got != 3 {
		t.Fatalf("grow totals %d VMs, want 3", got)
	}
	if avail := inv.Available(); avail[0] != 60-6 || avail[1] != 60-3 {
		t.Fatalf("Available = %v after grow, want [54 57]", avail)
	}
	// The reported DC must price the merged cluster.
	merged := mergeEntries(base.Entries, grow.Entries)
	sp := affinity.SparseAlloc{NumNodes: topo.Nodes(), NumTypes: 2, Entries: merged}
	wantDC, wantK := sp.ToDense().Distance(topo)
	if grow.DC != wantDC || grow.Center != wantK {
		t.Fatalf("grow DC/center = %v/%d, want %v/%d", grow.DC, grow.Center, wantDC, wantK)
	}
	victims, err := svc.Shrink(merged, model.Request{2, 1})
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if got := entriesTotal(victims); got != 3 {
		t.Fatalf("shrink returned %d VMs, want 3", got)
	}
	if avail := inv.Available(); avail[0] != 60-4 || avail[1] != 60-2 {
		t.Fatalf("Available = %v after shrink, want [56 58]", avail)
	}
	if err := svc.Release(subtractEntries(merged, victims)); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after release, want [60 60]", avail)
	}
	if st := svc.Stats(); st.Grown != 1 || st.Shrunk != 1 {
		t.Fatalf("stats = %+v, want Grown=1 Shrunk=1", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestServiceGrowInsufficientAndShrinkInfeasible(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	if err := inv.SetCapacity(0, 0, 4); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv, QueueCap: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() { _ = svc.Close() }()
	base, err := svc.Place(model.Request{3})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	// Only one slot left: a grow by 2 must fail fast, not park.
	if _, err := svc.Grow(base.Entries, model.Request{2}); !errors.Is(err, placement.ErrInsufficient) {
		t.Fatalf("oversized Grow error = %v, want ErrInsufficient", err)
	}
	// Shrinking more than the cluster holds is refused and changes nothing.
	if _, err := svc.Shrink(base.Entries, model.Request{4}); err == nil {
		t.Fatal("oversized Shrink accepted")
	}
	if avail := inv.Available(); avail[0] != 1 {
		t.Fatalf("Available = %v after failed delta ops, want [1]", avail)
	}
}

// A shrink naming an entry outside the plant is refused with an error —
// not a panic while the writer lock is held — and the service keeps
// serving with its inventory intact.
func TestServiceShrinkRejectsBadEntry(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	svc, err := New(Config{Topology: topo, Inventory: inv, QueueCap: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p, err := svc.Place(model.Request{3, 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	bad := append([]affinity.VMEntry{{Node: 0, Type: -1, Count: 1}}, p.Entries...)
	if _, err := svc.Shrink(bad, model.Request{1, 0}); err == nil {
		t.Fatal("Shrink with a negative entry type accepted")
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after the rejected shrink: %v", err)
	}
	victims, err := svc.Shrink(p.Entries, model.Request{1, 0})
	if err != nil {
		t.Fatalf("Shrink after the rejected one: %v", err)
	}
	if err := svc.Release(subtractEntries(p.Entries, victims)); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after release, want [60 60]", avail)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// A shrink's freed capacity must wake queued placements, exactly like a
// release does.
func TestServiceShrinkWakesWaiters(t *testing.T) {
	topo, inv := plant(t, 1, 0)
	if err := inv.SetCapacity(0, 0, 2); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	if err := inv.SetCapacity(1, 0, 2); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	base, err := svc.Place(model.Request{2})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	grow, err := svc.Grow(base.Entries, model.Request{2})
	if err != nil {
		t.Fatalf("Grow: %v", err)
	}
	merged := mergeEntries(base.Entries, grow.Entries)
	got := make(chan Placement, 1)
	go func() {
		p, err := svc.Place(model.Request{2})
		if err != nil {
			t.Errorf("queued Place: %v", err)
		}
		got <- p
	}()
	select {
	case <-got:
		t.Fatal("queued Place completed while the plant was full")
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := svc.Shrink(merged, model.Request{2}); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	select {
	case p := <-got:
		if entriesTotal(p.Entries) != 2 {
			t.Fatalf("woken placement totals %d VMs, want 2", entriesTotal(p.Entries))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued Place never woke after shrink")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// Concurrent resize churn under the service's writer lock: every
// client grows and shrinks its own cluster; the inventory must come back
// to full capacity and keep its invariants. Run with -race (the
// elastic-race gate) this pins the sharing discipline of the delta ops.
func TestServiceGrowShrinkHammer(t *testing.T) {
	topo, inv := plant(t, 2, 2)
	svc, err := New(Config{Topology: topo, Inventory: inv})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				base, err := svc.Place(model.Request{2, 1})
				if err != nil {
					t.Errorf("client %d: Place: %v", c, err)
					return
				}
				cluster := base.Entries
				g, err := svc.Grow(cluster, model.Request{1, 1})
				if err == nil {
					cluster = mergeEntries(cluster, g.Entries)
					victims, serr := svc.Shrink(cluster, model.Request{1, 1})
					if serr != nil {
						t.Errorf("client %d: Shrink: %v", c, serr)
						return
					}
					cluster = subtractEntries(cluster, victims)
				} else if !errors.Is(err, placement.ErrInsufficient) {
					t.Errorf("client %d: Grow: %v", c, err)
					return
				}
				if err := svc.Release(cluster); err != nil {
					t.Errorf("client %d: Release: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if avail := inv.Available(); avail[0] != 60 || avail[1] != 60 {
		t.Fatalf("Available = %v after churn, want [60 60]", avail)
	}
	if err := inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
