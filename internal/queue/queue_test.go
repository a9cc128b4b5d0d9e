package queue

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
)

func req(id int, vec model.Request) model.TimedRequest {
	return model.TimedRequest{ID: model.RequestID(id), Vector: vec}
}

func TestFIFOOrder(t *testing.T) {
	q := New(FIFO, 0)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(req(i, model.Request{1})); err != nil {
			t.Fatal(err)
		}
	}
	got := q.Peek()
	for i := range got {
		if got[i].ID != model.RequestID(i) {
			t.Errorf("position %d: ID %d", i, got[i].ID)
		}
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestCapacityLimit(t *testing.T) {
	q := New(FIFO, 2)
	_ = q.Enqueue(req(0, model.Request{1}))
	_ = q.Enqueue(req(1, model.Request{1}))
	if err := q.Enqueue(req(2, model.Request{1})); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestDuplicateID(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(7, model.Request{1}))
	if err := q.Enqueue(req(7, model.Request{2})); err == nil {
		t.Error("duplicate ID accepted")
	}
}

func TestCancel(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(0, model.Request{1}))
	_ = q.Enqueue(req(1, model.Request{1}))
	if err := q.Cancel(0); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 || q.Peek()[0].ID != 1 {
		t.Error("cancel removed the wrong request")
	}
	if err := q.Cancel(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	// Cancelled ID can be reused.
	if err := q.Enqueue(req(0, model.Request{3})); err != nil {
		t.Errorf("re-enqueue after cancel: %v", err)
	}
}

func TestGetRequestsSkipsOversized(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(0, model.Request{5})) // too big
	_ = q.Enqueue(req(1, model.Request{2}))
	_ = q.Enqueue(req(2, model.Request{2}))
	taken := q.GetRequests([]int{4})
	if len(taken) != 2 || taken[0].ID != 1 || taken[1].ID != 2 {
		t.Fatalf("taken = %v", taken)
	}
	if q.Len() != 1 || q.Peek()[0].ID != 0 {
		t.Error("oversized request should remain queued")
	}
}

func TestGetRequestsRunningBudget(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(0, model.Request{3}))
	_ = q.Enqueue(req(1, model.Request{3}))
	taken := q.GetRequests([]int{4})
	// Only the first fits within the running budget of 4.
	if len(taken) != 1 || taken[0].ID != 0 {
		t.Fatalf("taken = %v", taken)
	}
	if q.Len() != 1 {
		t.Error("second request should remain")
	}
}

func TestGetRequestsWrongLengthVectorSkipped(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(0, model.Request{1, 1})) // 2 types vs avail of 1
	_ = q.Enqueue(req(1, model.Request{1}))
	taken := q.GetRequests([]int{4})
	if len(taken) != 1 || taken[0].ID != 1 {
		t.Fatalf("taken = %v", taken)
	}
}

// A take walks the queue in order, EnqueueFront insertions first: with
// a budget of one, each take serves the head. A taken ID can be enqueued
// again, since its bookkeeping is gone.
func TestAppendRequestsTakesFrontFirst(t *testing.T) {
	q := New(FIFO, 0)
	_ = q.Enqueue(req(0, model.Request{1}))
	_ = q.Enqueue(req(1, model.Request{1}))
	_ = q.EnqueueFront(req(2, model.Request{1}))
	for _, w := range []model.RequestID{2, 0, 1} {
		if got := q.AppendRequests(nil, []int{1}); len(got) != 1 || got[0].ID != w {
			t.Fatalf("took %v, want ID %d", ids(got), w)
		}
	}
	if got := q.AppendRequests(nil, []int{1}); len(got) != 0 {
		t.Errorf("take from an empty queue returned %v", ids(got))
	}
	if err := q.Enqueue(req(1, model.Request{1})); err != nil {
		t.Errorf("re-enqueue after take: %v", err)
	}
}

// idsLen exposes the size of the internal ID set to the leak test.
func (q *Queue) idsLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.ids)
}

// TestSeqsMapShrinksWithQueue churns requests through every exit path —
// Cancel at the head and at the tail, GetRequests, AppendRequests — and
// asserts the
// internal ID set always matches the queue length, so long arrival
// streams cannot leak bookkeeping entries.
func TestSeqsMapShrinksWithQueue(t *testing.T) {
	q := New(FIFO, 0)
	check := func(when string) {
		t.Helper()
		if got, want := q.idsLen(), q.Len(); got != want {
			t.Fatalf("%s: ID set has %d entries, queue has %d items", when, got, want)
		}
	}
	id := 0
	for round := 0; round < 50; round++ {
		for k := 0; k < 4; k++ {
			if err := q.Enqueue(req(id, model.Request{1})); err != nil {
				t.Fatal(err)
			}
			id++
		}
		check("after enqueue")
		switch round % 4 {
		case 0:
			if err := q.Cancel(q.Peek()[0].ID); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := q.Cancel(model.RequestID(id - 1)); err != nil {
				t.Fatal(err)
			}
		case 2:
			if taken := q.GetRequests([]int{2}); len(taken) != 2 {
				t.Fatalf("GetRequests took %d", len(taken))
			}
		case 3:
			if taken := q.AppendRequests(nil, []int{3}); len(taken) != 3 {
				t.Fatalf("AppendRequests took %d", len(taken))
			}
		}
		check("after removal")
	}
	// Drain completely: every map entry must be gone.
	q.GetRequests([]int{q.Len()})
	if q.Len() != 0 || q.idsLen() != 0 {
		t.Fatalf("drained queue still holds %d items / %d IDs", q.Len(), q.idsLen())
	}
	// The vacated backing array must not pin request vectors alive.
	for i := 0; i < cap(q.items); i++ {
		it := q.items[:cap(q.items)][i]
		if it.Vector != nil {
			t.Fatalf("stale request %d left in backing array", it.ID)
		}
	}
}

func TestQueueInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	q := New(FIFO, 1)
	q.Instrument(reg)
	_ = q.Enqueue(req(0, model.Request{1}))
	_ = q.Enqueue(req(1, model.Request{1})) // full → rejected
	if taken := q.GetRequests([]int{1}); len(taken) != 1 {
		t.Fatalf("took %d requests, want 1", len(taken))
	}
	_ = q.Enqueue(req(2, model.Request{1}))
	_ = q.Cancel(2)
	_ = q.Enqueue(req(3, model.Request{1}))
	q.GetRequests([]int{1})
	snap := reg.Snapshot()
	want := map[string]int64{
		"queue.enqueued":  3,
		"queue.rejected":  1,
		"queue.cancelled": 1,
		"queue.admitted":  2, // two GetRequests, one request each
	}
	for name, w := range want {
		if got := snap.Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	if got := snap.Gauges["queue.depth"]; got != 0 {
		t.Errorf("queue.depth = %v, want 0", got)
	}
}

func TestConcurrentEnqueueCancel(t *testing.T) {
	q := New(FIFO, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := base*1000 + i
				if err := q.Enqueue(req(id, model.Request{1})); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := q.Cancel(model.RequestID(id)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if q.Len() != 8*25 {
		t.Errorf("Len = %d, want %d", q.Len(), 8*25)
	}
}

func TestEnqueueFrontOrdersAheadOfFIFO(t *testing.T) {
	q := New(FIFO, 0)
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(req(i, model.Request{1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.EnqueueFront(req(9, model.Request{1})); err != nil {
		t.Fatal(err)
	}
	got := q.Peek()
	if got[0].ID != 9 {
		t.Errorf("head = %d, want 9", got[0].ID)
	}
	for i := 1; i < 4; i++ {
		if got[i].ID != model.RequestID(i-1) {
			t.Errorf("position %d: ID %d", i, got[i].ID)
		}
	}
	// A second front insert outranks the first.
	if err := q.EnqueueFront(req(8, model.Request{1})); err != nil {
		t.Fatal(err)
	}
	if head := q.Peek()[0].ID; head != 8 {
		t.Errorf("head = %d, want 8", head)
	}
}

func TestEnqueueFrontPriorityAndLimits(t *testing.T) {
	q := New(FIFO, 2)
	if err := q.Enqueue(req(0, model.Request{1})); err != nil {
		t.Fatal(err)
	}
	if err := q.EnqueueFront(req(1, model.Request{1})); err != nil {
		t.Fatal(err)
	}
	got := q.Peek()
	if got[0].ID != 1 || got[1].ID != 0 {
		t.Errorf("order = %v,%v, want 1,0", got[0].ID, got[1].ID)
	}
	if err := q.EnqueueFront(req(2, model.Request{1})); !errors.Is(err, ErrFull) {
		t.Errorf("over-capacity front insert: %v", err)
	}
	if err := q.EnqueueFront(req(1, model.Request{1})); err == nil {
		t.Error("duplicate front insert accepted")
	}
	// Taken requests clear their IDs so the ID can requeue later.
	if taken := q.AppendRequests(nil, []int{1}); len(taken) != 1 || taken[0].ID != 1 {
		t.Fatalf("took %v, want ID 1", ids(taken))
	}
	if err := q.EnqueueFront(req(1, model.Request{1})); err != nil {
		t.Errorf("re-insert after take: %v", err)
	}
}

// TestPeekSurvivesMutation pins the copy contract of Peek: a result held
// across Cancel/GetRequests must keep its values even though
// removeAt and removeTaken zero the vacated tail slots of the queue's
// backing array. If ordered() ever returned q.items (or a reslice of it),
// the held snapshot's entries would be wiped to zero structs here.
func TestPeekSurvivesMutation(t *testing.T) {
	q := New(FIFO, 0)
	for i := 0; i < 4; i++ {
		if err := q.Enqueue(req(i, model.Request{i + 1, 2 * i})); err != nil {
			t.Fatal(err)
		}
	}
	held := q.Peek()

	// Drain the whole queue from its head: every removeAt zeroes a tail
	// slot.
	for i := 0; i < 4; i++ {
		if err := q.Cancel(model.RequestID(i)); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	for i, r := range held {
		if r.ID != model.RequestID(i) {
			t.Fatalf("held[%d].ID = %d after drain, want %d (snapshot aliased backing array)", i, r.ID, i)
		}
		if len(r.Vector) != 2 || r.Vector[0] != i+1 || r.Vector[1] != 2*i {
			t.Fatalf("held[%d].Vector = %v after drain, want [%d %d]", i, r.Vector, i+1, 2*i)
		}
	}
}

// TestGetRequestsSurvivesMutation pins the same contract for GetRequests:
// the taken slice must stay intact across later enqueues, takes, and
// cancels (removeTaken zeroes the compacted tail in place).
func TestGetRequestsSurvivesMutation(t *testing.T) {
	q := New(FIFO, 0)
	for i := 0; i < 6; i++ {
		if err := q.Enqueue(req(i, model.Request{1})); err != nil {
			t.Fatal(err)
		}
	}
	taken := q.GetRequests([]int{3}) // admits the first three in queue order
	if len(taken) != 3 {
		t.Fatalf("took %d requests, want 3", len(taken))
	}
	wantIDs := make([]model.RequestID, len(taken))
	for i, r := range taken {
		wantIDs[i] = r.ID
	}

	// Churn the queue hard: re-add, take again, cancel, drain.
	for i := 6; i < 10; i++ {
		if err := q.Enqueue(req(i, model.Request{1})); err != nil {
			t.Fatal(err)
		}
	}
	_ = q.GetRequests([]int{4})
	for _, r := range q.Peek() {
		_ = q.Cancel(r.ID)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
	for i, r := range taken {
		if r.ID != wantIDs[i] {
			t.Fatalf("taken[%d].ID changed from %d to %d across mutations", i, wantIDs[i], r.ID)
		}
		if len(r.Vector) != 1 || r.Vector[0] != 1 {
			t.Fatalf("taken[%d].Vector = %v after churn, want [1]", i, r.Vector)
		}
	}
}

// refTake is getRequests as a plain walk over a copy of the waiting
// requests: take what the running budget admits, and keep the rest in
// queue order.
func refTake(q *Queue, avail []int) (taken, left []model.TimedRequest) {
	remaining := append([]int(nil), avail...)
	took := make(map[model.RequestID]bool)
	for _, r := range append([]model.TimedRequest(nil), q.items...) {
		if len(r.Vector) != len(remaining) || !model.Covers(remaining, r.Vector) {
			continue
		}
		remaining = model.Sub(remaining, r.Vector)
		taken = append(taken, r)
		took[r.ID] = true
	}
	for _, r := range q.items {
		if !took[r.ID] {
			left = append(left, r)
		}
	}
	return taken, left
}

// TestAppendRequestsMatchesReference drives random queues through
// Enqueue, EnqueueFront, Cancel and drains with vectors of mismatched
// widths among them. Every AppendRequests and GetRequests must take what
// refTake takes, in the same order, and leave the same queue behind.
func TestAppendRequestsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := New(FIFO, 0)
		next := 0
		var dst []model.TimedRequest
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(10); {
			case k < 5:
				width := 2
				if rng.Intn(8) == 0 {
					width = 1 + 2*rng.Intn(2) // 1 or 3: never fits
				}
				vec := make(model.Request, width)
				for j := range vec {
					vec[j] = rng.Intn(4)
				}
				r := req(next, vec)
				next++
				var err error
				if rng.Intn(4) == 0 {
					err = q.EnqueueFront(r)
				} else {
					err = q.Enqueue(r)
				}
				if err != nil {
					t.Fatal(err)
				}
			case k < 6:
				if len(q.items) > 0 {
					if err := q.Cancel(q.items[rng.Intn(len(q.items))].ID); err != nil {
						t.Fatal(err)
					}
				}
			default:
				avail := []int{rng.Intn(8), rng.Intn(8)}
				fresh := k == 9
				wantTaken, wantLeft := refTake(q, avail)
				var got []model.TimedRequest
				if fresh {
					got = q.GetRequests(avail)
				} else {
					dst = q.AppendRequests(dst[:0], avail)
					got = dst
				}
				if !reflect.DeepEqual(ids(got), ids(wantTaken)) {
					t.Fatalf("seed %d step %d (GetRequests %v): took %v, reference %v",
						seed, step, fresh, ids(got), ids(wantTaken))
				}
				if !reflect.DeepEqual(ids(q.items), ids(wantLeft)) || len(q.ids) != len(q.items) {
					t.Fatalf("seed %d step %d: left %v (%d IDs), reference %v",
						seed, step, ids(q.items), len(q.ids), ids(wantLeft))
				}
			}
		}
	}
}

func ids(rs []model.TimedRequest) []model.RequestID {
	out := make([]model.RequestID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// A warm AppendRequests allocates nothing: the budget and the take
// marks are queue-owned scratch, and the taken requests go into the
// caller's buffer.
func TestAppendRequestsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	q := New(FIFO, 0)
	for i := 0; i < 64; i++ {
		if err := q.Enqueue(req(i, model.Request{1 + i%3, i % 2})); err != nil {
			t.Fatal(err)
		}
	}
	avail := []int{5, 2}
	var dst []model.TimedRequest
	avg := testing.AllocsPerRun(100, func() {
		dst = q.AppendRequests(dst[:0], avail)
		for _, r := range dst {
			if err := q.Enqueue(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 || len(dst) == 0 || q.Len() != 64 {
		t.Errorf("take and put back allocates %.2f allocs/op (took %d, %d waiting), want 0", avg, len(dst), q.Len())
	}
}
