package main

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The shared machine the baselines were taken on changes speed by 10–20%
// over minutes, for every process alike: a plant's set-up time and the
// workload's throughput move together (correlation 0.8–0.98 across
// runs). One run's end-to-end timings are therefore scaled to a
// reference machine speed, measured with a fixed kernel timed before
// every plant. The kernel runs in a fresh child process, so the heap and
// GC state a workload leaves behind cannot reach it, and it calls only
// the standard library, so the program's own code never runs inside it.

// calibRef is about the kernel's median time, in seconds, on the
// machine the baselines were taken on, so scaled timings stay close to
// raw ones there.
const calibRef = 3e-3

// kernelRuns is how many times the child times the kernel; it reports
// the median.
const kernelRuns = 5

var calibSink int

// kernel times the calibration kernel once: map inserts, a sort and
// small allocations from a fixed seed, after a full GC.
func kernel() float64 {
	runtime.GC()
	t0 := time.Now()
	r := rand.New(rand.NewSource(1))
	m := make(map[int]int)
	for i := 0; i < 8000; i++ {
		m[r.Int()] = i
	}
	xs := make([]float64, 16000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	slices.Sort(xs)
	var keep [][]byte
	for i := 0; i < 16000; i++ {
		keep = append(keep, make([]byte, 32))
	}
	calibSink += len(m) + len(keep)
	return time.Since(t0).Seconds()
}

// calibrateKernel is what the child process runs (-calibrate): the
// median of kernelRuns kernel times, in seconds.
func calibrateKernel() float64 {
	ts := make([]float64, kernelRuns)
	for i := range ts {
		ts[i] = kernel()
	}
	return median(ts)
}

// speed collects one run's kernel times.
type speed struct{ kernel []float64 }

// measure times the kernel in a child process running this same binary
// with -calibrate. A full GC here first keeps this process's collector
// from competing with the child for the CPU.
func (s *speed) measure() error {
	runtime.GC()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(exe, "-calibrate").Output()
	if err != nil {
		return fmt.Errorf("calibration kernel: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil || !(v > 0) {
		return fmt.Errorf("calibration kernel printed %q", out)
	}
	s.kernel = append(s.kernel, v)
	return nil
}

// scale is the factor that turns this run's durations into reference
// durations: below 1 when the machine ran slow. Durations are multiplied
// by it, rates divided.
func (s *speed) scale() float64 { return calibRef / median(s.kernel) }
