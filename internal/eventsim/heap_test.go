package eventsim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refEvent mirrors one engine event inside the container/heap reference.
type refEvent struct {
	ev    *Event // the engine's handle for the same event
	time  float64
	class int
	seq   int
	idx   int
}

// refHeap is the container/heap implementation the engine's typed heap
// replaced, kept as the differential oracle.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].class != h[j].class {
		return h[i].class < h[j].class
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	r := x.(*refEvent)
	r.idx = len(*h)
	*h = append(*h, r)
}
func (h *refHeap) Pop() any {
	old := *h
	r := old[len(old)-1]
	*h = old[:len(old)-1]
	r.idx = -1
	return r
}

// TestHeapMatchesContainerHeap drives seeded random sequences of
// At/AtClass/Cancel/Reschedule/Step through the engine and through a
// container/heap reference in lockstep. After every operation the two
// heaps must hold the same events in the same slots with the same idx
// bookkeeping, and every Step must pop the reference's minimum.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var ref refHeap
		var all []*refEvent
		seq := 0
		var fired *Event
		fn := func(float64) {}
		check := func(step int, op string) {
			t.Helper()
			if len(e.events) != len(ref) {
				t.Fatalf("seed %d step %d (%s): engine holds %d events, reference %d", seed, step, op, len(e.events), len(ref))
			}
			for i, ev := range e.events {
				if ref[i].ev != ev {
					t.Fatalf("seed %d step %d (%s): slot %d differs from container/heap", seed, step, op, i)
				}
			}
			for _, r := range all {
				if r.ev.idx != r.idx {
					t.Fatalf("seed %d step %d (%s): idx %d, container/heap has %d", seed, step, op, r.ev.idx, r.idx)
				}
			}
		}
		for step := 0; step < 400; step++ {
			// Small integer offsets make (Time, class) ties common, so
			// the seq tie-break is exercised.
			at := e.Now() + float64(rng.Intn(4))
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				op = "at"
				class := 0
				var ev *Event
				var err error
				if k >= 2 {
					op, class = "atclass", rng.Intn(3)-1
					ev, err = e.AtClass(at, class, fn)
				} else {
					ev, err = e.At(at, fn)
				}
				if err != nil {
					t.Fatal(err)
				}
				r := &refEvent{ev: ev, time: at, class: class, seq: seq}
				seq++
				heap.Push(&ref, r)
				all = append(all, r)
			case k < 5:
				op = "cancel"
				if len(all) == 0 {
					continue
				}
				r := all[rng.Intn(len(all))]
				wasPending := r.idx >= 0
				if got := e.Cancel(r.ev); got != wasPending {
					t.Fatalf("seed %d step %d: Cancel = %v, event pending = %v", seed, step, got, wasPending)
				}
				if wasPending {
					heap.Remove(&ref, r.idx)
				}
			case k < 7:
				op = "reschedule"
				if len(all) == 0 {
					continue
				}
				r := all[rng.Intn(len(all))]
				class := rng.Intn(3) - 1
				err := e.Reschedule(r.ev, at, class)
				if r.idx >= 0 {
					if err == nil {
						t.Fatalf("seed %d step %d: Reschedule of a pending event accepted", seed, step)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				r.time, r.class, r.seq = at, class, seq
				seq++
				heap.Push(&ref, r)
			default:
				op = "step"
				if len(ref) == 0 {
					if e.Step() {
						t.Fatalf("seed %d step %d: Step ran with the reference empty", seed, step)
					}
					break
				}
				want := heap.Pop(&ref).(*refEvent)
				fired = nil
				want.ev.Fn = func(float64) { fired = want.ev }
				if !e.Step() || fired != want.ev {
					t.Fatalf("seed %d step %d: Step did not pop the container/heap minimum", seed, step)
				}
				if e.Now() != want.time {
					t.Fatalf("seed %d step %d: clock %v, want %v", seed, step, e.Now(), want.time)
				}
			}
			check(step, op)
		}
	}
}

// TestRescheduleErrors pins Reschedule's rejections; none may disturb
// the heap.
func TestRescheduleErrors(t *testing.T) {
	e := New()
	pending, err := e.At(5, func(float64) {})
	if err != nil {
		t.Fatal(err)
	}
	fired, err := e.At(1, func(float64) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // fires "fired"; clock at 1
	for _, c := range []struct {
		name string
		ev   *Event
		at   float64
	}{
		{"pending event", pending, 7},
		{"nil event", nil, 7},
		{"nil callback", &Event{}, 7},
		{"NaN", fired, math.NaN()},
		{"+Inf", fired, math.Inf(1)},
		{"-Inf", fired, math.Inf(-1)},
		{"past", fired, 0.5},
	} {
		if err := e.Reschedule(c.ev, c.at, 0); err == nil {
			t.Errorf("%s: Reschedule accepted", c.name)
		}
		if e.Pending() != 1 || e.events[0] != pending || pending.idx != 0 {
			t.Fatalf("%s: rejected Reschedule disturbed the heap", c.name)
		}
	}
	if err := e.Reschedule(fired, 1, 0); err != nil {
		t.Errorf("re-arm at the current clock rejected: %v", err)
	}
}

// TestRescheduleOrdersLikeAt checks that a re-armed event takes a fresh
// seq: it fires after same-time events scheduled before the re-arm, and
// a cancelled event can be re-armed too.
func TestRescheduleOrdersLikeAt(t *testing.T) {
	e := New()
	var order []string
	log := func(name string) func(float64) {
		return func(float64) { order = append(order, name) }
	}
	a, _ := e.At(1, log("a"))
	b, _ := e.At(2, log("b"))
	e.Cancel(b)
	e.Step() // a
	if _, err := e.At(3, log("c")); err != nil {
		t.Fatal(err)
	}
	if err := e.Reschedule(a, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Reschedule(b, 3, 0); err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := []string{"a", "c", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRearmZeroAllocs pins the retry-chain contract: an event that
// re-arms itself from its own callback costs no allocation per cycle,
// with other events pending around it.
func TestRearmZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	e := New()
	for i := 0; i < 64; i++ {
		if _, err := e.At(1e9+float64(i), func(float64) {}); err != nil {
			t.Fatal(err)
		}
	}
	var ev *Event
	ev, err := e.At(0, func(now float64) {
		if err := e.Reschedule(ev, now+5, 0); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Errorf("re-arm cycle allocates %.2f allocs/op, want 0", avg)
	}
	if e.Processed() != 201 || e.Pending() != 65 {
		t.Errorf("processed %d, pending %d; want 201 and 65", e.Processed(), e.Pending())
	}
}
