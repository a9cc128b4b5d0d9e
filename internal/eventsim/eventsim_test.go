package eventsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if _, err := e.At(at, func(now float64) { fired = append(fired, now) }); err != nil {
			t.Fatal(err)
		}
	}
	end := e.Run()
	if end != 5 {
		t.Errorf("final clock = %v", end)
	}
	if !sort.Float64sAreSorted(fired) || len(fired) != 5 {
		t.Errorf("fired = %v", fired)
	}
}

func TestFIFOWithinSameTimestamp(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		_, _ = e.At(1, func(float64) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at2, at5 float64
	_, _ = e.At(2, func(now float64) {
		at2 = now
		_, _ = e.After(3, func(now float64) { at5 = now })
	})
	e.Run()
	if at2 != 2 || at5 != 5 {
		t.Errorf("at2=%v at5=%v", at2, at5)
	}
	if e.Processed() != 2 {
		t.Errorf("Processed = %d", e.Processed())
	}
}

func TestSchedulingInPastRejected(t *testing.T) {
	e := New()
	_, _ = e.At(5, func(float64) {})
	e.Run()
	if _, err := e.At(3, func(float64) {}); err == nil {
		t.Error("past scheduling accepted")
	}
	if _, err := e.After(-1, func(float64) {}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := e.At(6, nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev, _ := e.At(1, func(float64) { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel returned false for live event")
	}
	if e.Cancel(ev) {
		t.Error("double Cancel returned true")
	}
	if e.Cancel(nil) {
		t.Error("Cancel(nil) returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestCancelAlreadyPoppedEvent(t *testing.T) {
	e := New()
	fired := 0
	ev, _ := e.At(1, func(float64) { fired++ })
	_, _ = e.At(2, func(float64) {})
	if !e.Step() { // pops and fires ev
		t.Fatal("Step returned false with events pending")
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The handle is stale now: cancelling it must be a no-op that does not
	// disturb the remaining heap.
	if e.Cancel(ev) {
		t.Error("Cancel of already-popped event returned true")
	}
	if e.Cancel(ev) {
		t.Error("double Cancel of popped event returned true")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d after stale cancel, want 1", e.Pending())
	}
	e.Run()
	if fired != 1 || e.Now() != 2 {
		t.Errorf("fired=%d now=%v", fired, e.Now())
	}
}

func TestCancelSelfInsideCallback(t *testing.T) {
	e := New()
	var ev *Event
	ok := true
	ev, _ = e.At(1, func(float64) {
		// By the time the callback runs, the event has been popped; a
		// self-cancel must report false and not corrupt the heap.
		ok = !e.Cancel(ev)
	})
	_, _ = e.At(2, func(float64) {})
	e.Run()
	if !ok {
		t.Error("self-cancel inside callback returned true")
	}
	if e.Now() != 2 {
		t.Errorf("clock = %v", e.Now())
	}
}

func TestScheduleAtCurrentTimeFromCallback(t *testing.T) {
	e := New()
	var fired []string
	_, _ = e.At(3, func(now float64) {
		fired = append(fired, "outer")
		// Scheduling at exactly the current timestamp is legal (t is not
		// < now) and the new event fires within the same Run, after any
		// previously queued same-time events (FIFO by sequence).
		if _, err := e.At(now, func(float64) { fired = append(fired, "inner") }); err != nil {
			t.Errorf("At(now) from callback: %v", err)
		}
	})
	_, _ = e.At(3, func(float64) { fired = append(fired, "sibling") })
	end := e.Run()
	if end != 3 {
		t.Errorf("final clock = %v", end)
	}
	want := []string{"outer", "sibling", "inner"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var fired []float64
	var evs []*Event
	for _, at := range []float64{1, 2, 3, 4, 5} {
		ev, _ := e.At(at, func(now float64) { fired = append(fired, now) })
		evs = append(evs, ev)
	}
	e.Cancel(evs[2]) // cancel t=3
	e.Run()
	want := []float64{1, 2, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v", fired)
		}
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty returned true")
	}
	if e.Run() != 0 {
		t.Error("Run on empty advanced the clock")
	}
}

// Property: random schedules always fire in non-decreasing time order and
// the count matches.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		n := 1 + r.Intn(50)
		var fired []float64
		for i := 0; i < n; i++ {
			_, err := e.At(r.Float64()*100, func(now float64) { fired = append(fired, now) })
			if err != nil {
				return false
			}
		}
		e.Run()
		return len(fired) == n && sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: cascading events (each schedules a successor) run to
// completion with a monotone clock.
func TestQuickCascade(t *testing.T) {
	f := func(stepsRaw uint8) bool {
		steps := int(stepsRaw%20) + 1
		e := New()
		count := 0
		var schedule func()
		schedule = func() {
			_, _ = e.After(1, func(float64) {
				count++
				if count < steps {
					schedule()
				}
			})
		}
		schedule()
		end := e.Run()
		return count == steps && end == float64(steps)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNonFiniteTimesRejected(t *testing.T) {
	e := New()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.At(bad, func(float64) {}); err == nil {
			t.Errorf("At(%v) accepted", bad)
		}
		if _, err := e.After(bad, func(float64) {}); err == nil {
			t.Errorf("After(%v) accepted", bad)
		}
	}
	if e.Pending() != 0 {
		t.Errorf("heap polluted: %d pending", e.Pending())
	}
}

// TestClassBreaksTimestampTies pins the class ordering: at one timestamp,
// a negative-class event scheduled *after* class-0 events still fires
// first, classes tie-break before insertion order, and equal classes keep
// FIFO order.
func TestClassBreaksTimestampTies(t *testing.T) {
	e := New()
	var order []string
	log := func(name string) func(float64) {
		return func(float64) { order = append(order, name) }
	}
	if _, err := e.At(5, log("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AtClass(5, 1, log("late-class")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.At(5, log("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AtClass(5, -1, log("arrival")); err != nil {
		t.Fatal(err)
	}
	e.Run()
	want := []string{"arrival", "a", "b", "late-class"}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestClassZeroMatchesAt pins that At is exactly AtClass(..., 0, ...), so
// existing callers keep their (Time, seq) ordering bit for bit.
func TestClassZeroMatchesAt(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		var err error
		if i%2 == 0 {
			_, err = e.At(1, func(float64) { order = append(order, i) })
		} else {
			_, err = e.AtClass(1, 0, func(float64) { order = append(order, i) })
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}
