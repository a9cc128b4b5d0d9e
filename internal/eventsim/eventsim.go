// Package eventsim is a minimal discrete-event simulation engine shared by
// the cloud-level simulator (request arrivals and departures) and the
// MapReduce job simulator (task and transfer completions). Events carry a
// virtual timestamp and a callback; the engine pops them in time order,
// advancing a virtual clock. Callbacks may schedule further events.
package eventsim

import (
	"errors"
	"fmt"
	"math"
)

// Event is one scheduled callback.
type Event struct {
	Time  float64
	Fn    func(now float64)
	class int // timestamp tie-break before seq; At/After use class 0
	seq   int // FIFO tie-break among equal (Time, class)
	idx   int // heap index, -1 once popped or cancelled
}

// Engine owns the event queue and the virtual clock. It is single-
// goroutine by design: discrete-event simulation is inherently sequential
// in virtual time, and determinism matters more than parallel speed at the
// paper's scales.
type Engine struct {
	now    float64
	events []*Event // binary min-heap ordered by (Time, class, seq)
	seq    int
	runs   int
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.runs }

// At schedules fn at absolute virtual time t, which must be finite and
// must not precede the current clock. It returns a handle usable with
// Cancel and Reschedule.
func (e *Engine) At(t float64, fn func(now float64)) (*Event, error) {
	return e.AtClass(t, 0, fn)
}

// AtClass schedules fn at time t in the given tie-break class: among
// events with equal timestamps, lower classes fire first regardless of
// insertion order, and equal classes fall back to FIFO insertion order.
// At and After schedule in class 0; a negative class lets an event
// scheduled late (e.g. a lazily-pulled trace arrival) still outrank
// same-timestamp events that entered the heap earlier.
func (e *Engine) AtClass(t float64, class int, fn func(now float64)) (*Event, error) {
	if err := e.checkTime(t); err != nil {
		return nil, err
	}
	if fn == nil {
		return nil, errors.New("eventsim: nil callback")
	}
	ev := &Event{Time: t, Fn: fn, class: class}
	e.schedule(ev)
	return ev, nil
}

// After schedules fn delay time units from now.
func (e *Engine) After(delay float64, fn func(now float64)) (*Event, error) {
	if delay < 0 {
		return nil, fmt.Errorf("eventsim: negative delay %v", delay)
	}
	return e.At(e.now+delay, fn)
}

// Reschedule re-arms an event that has fired or been cancelled at time
// t in the given tie-break class, keeping its callback. It takes a fresh
// FIFO sequence number, so it orders exactly like a new AtClass call
// made at the same moment — but reuses the handle instead of allocating
// one. Callers that repeat the same action many times own one event and
// re-arm it; the class is restated because a reused handle may serve an
// owner whose class differs from the one it was bound for. Rescheduling
// a still-pending event is an error; cancel it first.
func (e *Engine) Reschedule(ev *Event, t float64, class int) error {
	if ev == nil {
		return errors.New("eventsim: reschedule of nil event")
	}
	if e.pending(ev) {
		return fmt.Errorf("eventsim: reschedule of pending event at %v", ev.Time)
	}
	if err := e.checkTime(t); err != nil {
		return err
	}
	if ev.Fn == nil {
		return errors.New("eventsim: nil callback")
	}
	ev.Time, ev.class = t, class
	e.schedule(ev)
	return nil
}

// checkTime rejects non-finite times and times before the clock.
func (e *Engine) checkTime(t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		// A NaN would slip past the ordering checks below (every
		// comparison is false) and silently corrupt the heap order.
		return fmt.Errorf("eventsim: non-finite event time %v", t)
	}
	if t < e.now {
		return fmt.Errorf("eventsim: cannot schedule at %v, clock is at %v", t, e.now)
	}
	return nil
}

// schedule stamps ev with the next sequence number and pushes it.
func (e *Engine) schedule(ev *Event) {
	ev.seq = e.seq
	e.seq++
	ev.idx = len(e.events)
	e.events = append(e.events, ev)
	e.up(ev.idx)
}

// pending reports whether ev sits in this engine's heap.
func (e *Engine) pending(ev *Event) bool {
	return ev.idx >= 0 && ev.idx < len(e.events) && e.events[ev.idx] == ev
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a harmless no-op returning false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || !e.pending(ev) {
		return false
	}
	e.remove(ev.idx)
	return true
}

// Step executes the single earliest event, advancing the clock. It
// returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.remove(0)
	e.now = ev.Time
	e.runs++
	ev.Fn(e.now)
	return true
}

// Run drains the queue completely and returns the final clock value.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// The heap below is container/heap's algorithm specialized to []*Event:
// the same sift paths, so the heap layout (and every idx) matches what
// heap.Push/Pop/Remove would produce. Sifts move a hole instead of
// swapping, writing the moving event once at its final slot.

// less orders events by (Time, class, seq).
func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// up sifts h[j] toward the root.
func (e *Engine) up(j int) {
	h := e.events
	x := h[j]
	for {
		i := (j - 1) / 2 // parent
		if i == j || !less(x, h[i]) {
			break
		}
		h[j] = h[i]
		h[j].idx = j
		j = i
	}
	h[j] = x
	x.idx = j
}

// down sifts h[i0] toward the leaves of h[:n] and reports whether it
// moved.
func (e *Engine) down(i0, n int) bool {
	h := e.events
	x := h[i0]
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && less(h[j2], h[j1]) {
			j = j2 // right child
		}
		if !less(h[j], x) {
			break
		}
		h[i] = h[j]
		h[i].idx = i
		i = j
	}
	h[i] = x
	x.idx = i
	return i > i0
}

// remove takes element i out of the heap (heap.Remove; i == 0 is
// heap.Pop) and marks it no longer pending.
func (e *Engine) remove(i int) *Event {
	h := e.events
	n := len(h) - 1
	ev := h[i]
	if n != i {
		h[i] = h[n]
		if !e.down(i, n) {
			e.up(i)
		}
	}
	h[n] = nil
	e.events = h[:n]
	ev.idx = -1
	return ev
}
