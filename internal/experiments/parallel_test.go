package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn with the pool width pinned, restoring it after.
func withWorkers(t *testing.T, w int, fn func()) {
	t.Helper()
	old := maxWorkers
	maxWorkers = w
	defer func() { maxWorkers = old }()
	fn()
}

// goroutines returns the IDs of the live goroutines, read from the
// headers of an all-goroutine stack dump. IDs are never reused.
func goroutines() map[int]bool {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[int]bool{}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("goroutine ")); ok {
			if id, _, ok := bytes.Cut(rest, []byte(" ")); ok {
				if n, err := strconv.Atoi(string(id)); err == nil {
					ids[n] = true
				}
			}
		}
	}
	return ids
}

// started returns the goroutines alive now that are not in before,
// ascending.
func started(before map[int]bool) []int {
	var out []int
	for id := range goroutines() {
		if !before[id] {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// settled reports whether every goroutine started since before has
// exited. Exited goroutines are reaped asynchronously, so it yields the
// processor for a while before it gives up. It compares goroutine IDs,
// not counts, so a goroutine that was alive in before and exits later
// cannot hide a new one.
func settled(before map[int]bool) bool {
	for i := 0; len(started(before)) > 0; i++ {
		if i == 10_000 {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// joined fails the test unless every goroutine started since before has
// exited: a worker that outlives forEachIndex leaks.
func joined(t *testing.T, before map[int]bool) {
	t.Helper()
	if !settled(before) {
		t.Fatalf("goroutines %v outlived forEachIndex", started(before))
	}
}

// TestForEachIndexCoversAllAndOrdersErrors exercises the pool directly:
// every index runs exactly once, the reported error is the lowest-index
// failure regardless of scheduling, and no worker outlives the call.
func TestForEachIndexCoversAllAndOrdersErrors(t *testing.T) {
	for _, w := range []int{1, 3, 16} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			withWorkers(t, w, func() {
				var calls [40]int32
				before := goroutines()
				if err := forEachIndex(len(calls), func(i int) error {
					atomic.AddInt32(&calls[i], 1)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				joined(t, before)
				for i, c := range calls {
					if c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
				errLow := errors.New("low")
				errHigh := errors.New("high")
				err := forEachIndex(len(calls), func(i int) error {
					switch i {
					case 7:
						return errLow
					case 31:
						return errHigh
					}
					return nil
				})
				if err != errLow {
					t.Fatalf("got %v, want lowest-index error", err)
				}
				joined(t, before)
			})
		})
	}
	if err := forEachIndex(0, func(int) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestSettledCatchesParkedGoroutine: the leak check above is not
// vacuous. After a forEachIndex call whose fn leaves a goroutine parked,
// the count does not settle; once that goroutine exits, it does.
func TestSettledCatchesParkedGoroutine(t *testing.T) {
	withWorkers(t, 3, func() {
		stop := make(chan struct{})
		before := goroutines()
		if err := forEachIndex(4, func(i int) error {
			if i == 0 {
				go func() { <-stop }()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if settled(before) {
			t.Fatal("a goroutine parked by fn went unnoticed")
		}
		close(stop)
		if !settled(before) {
			t.Fatalf("goroutines %v alive after the parked one exited", started(before))
		}
	})
}

// TestParallelRunnersDeterministic runs every parallelized experiment
// with 1 worker and with 8 and requires deeply equal results: the pool
// must not change any reported number.
func TestParallelRunnersDeterministic(t *testing.T) {
	const seed = 424242

	type outcome struct {
		normal, small float64
		sweep         *SweepResult
		base          *BaselineResult
		fig78         *Fig78Result
	}
	run := func() *outcome {
		o := &outcome{}
		var err error
		o.normal, o.small, err = Fig56Averages(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		o.sweep, err = SelectivitySweep(seed, []float64{0.01, 0.5, 1.2})
		if err != nil {
			t.Fatal(err)
		}
		o.base, err = BaselineComparison(seed)
		if err != nil {
			t.Fatal(err)
		}
		o.fig78, err = Fig7and8(seed)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	var serial, wide *outcome
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { wide = run() })

	if serial.normal != wide.normal || serial.small != wide.small {
		t.Errorf("Fig56Averages differs: serial (%v, %v), 8 workers (%v, %v)",
			serial.normal, serial.small, wide.normal, wide.small)
	}
	if !reflect.DeepEqual(serial.sweep, wide.sweep) {
		t.Errorf("SelectivitySweep differs:\nserial %+v\n8 workers %+v", serial.sweep, wide.sweep)
	}
	if !reflect.DeepEqual(serial.base, wide.base) {
		t.Errorf("BaselineComparison differs:\nserial %+v\n8 workers %+v", serial.base, wide.base)
	}
	if !reflect.DeepEqual(serial.fig78, wide.fig78) {
		t.Errorf("Fig7and8 differs:\nserial %+v\n8 workers %+v", serial.fig78, wide.fig78)
	}
}
