// Command affinitysim runs the paper's simulation experiments (Figs. 2–6)
// on the 3-rack × 10-node cloud and prints figure-shaped terminal output.
// The ops figure runs the instrumented operational scenario (cloud
// simulation + one MapReduce job) and is the producer for the -metrics
// and -trace exports unless -fig selects another producer.
//
// Usage:
//
//	affinitysim [-seed N] [-fig 2|3|4|5|6|ops|faults|soak|elastic|all]
//	            [-mtbf N] [-mttr N] [-requests N]
//	            [-metrics out.json] [-trace out.jsonl] [-pprof addr]
//
// The faults, soak, and elastic figures are their own
// -metrics/-trace producers. Every producer streams its trace to the
// -trace file event by event.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"time"

	"affinitycluster/internal/experiments"
	"affinitycluster/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 2012, "random seed for capacities and requests")
	fig := flag.String("fig", "all", "figure to run: 2, 3, 4, 5, 6, ops, faults, soak, elastic, or all")
	mtbf := flag.Float64("mtbf", 0, "faults figure: mean time between failures (0 = scenario default)")
	mttr := flag.Float64("mttr", 0, "faults figure: mean time to repair (0 = scenario default)")
	requests := flag.Int("requests", 0, "soak figure: open-loop request count (0 = scenario default)")
	metricsPath := flag.String("metrics", "", "write the producing scenario's JSON metric snapshot to this file (ops unless -fig is faults, soak or elastic)")
	tracePath := flag.String("trace", "", "stream the producing scenario's JSONL event trace to this file (ops unless -fig is faults, soak or elastic)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		// The pprof server lives as long as the process, by design.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "affinitysim: pprof:", err)
			}
		}()
	}

	if err := run(os.Stdout, *seed, *fig, *metricsPath, *tracePath, *mtbf, *mttr, *requests); err != nil {
		fmt.Fprintln(os.Stderr, "affinitysim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, seed int64, fig, metricsPath, tracePath string, mtbf, mttr float64, requests int) (err error) {
	for _, f := range []struct {
		name string
		v    float64
	}{{"mtbf", mtbf}, {"mttr", mttr}, {"requests", float64(requests)}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("-%s must be finite and non-negative (0 = scenario default), got %v", f.name, f.v)
		}
	}
	if fig != "all" && !slices.Contains([]string{"2", "3", "4", "5", "6", "ops", "faults", "soak", "elastic"}, fig) {
		return fmt.Errorf("unknown figure %q", fig)
	}
	// One buffered sink takes the trace of whichever scenario produces
	// it. Without -trace it stays an untyped nil, which keeps no trace: a
	// nil *bufio.Writer in the interface would not be nil.
	var trace io.Writer
	if tracePath != "" {
		f, ferr := os.Create(tracePath)
		if ferr != nil {
			return fmt.Errorf("creating trace file: %w", ferr)
		}
		bw := bufio.NewWriter(f)
		// The deferred flush and close report through run's own err.
		defer func() {
			if ferr := bw.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("writing trace: %w", ferr)
			}
			if ferr := f.Close(); ferr != nil && err == nil {
				err = fmt.Errorf("closing trace file: %w", ferr)
			}
		}()
		trace = bw
	}
	want := func(f string) bool { return fig == "all" || fig == f }
	if want("2") {
		res, err := experiments.Fig2(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("3") {
		res, err := experiments.Fig3(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("4") {
		res, err := experiments.Fig4(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("5") {
		res, err := experiments.Fig5(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	if want("6") {
		res, err := experiments.Fig6(seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
	}
	// reg is the registry of the one scenario that produces the -metrics
	// and -trace exports.
	var reg *obs.Registry
	switch {
	// The faults, soak and elastic figures are deliberately NOT part of
	// -fig all: the classic figures stay byte-identical to fault-free,
	// static builds, and these runs are an explicit opt-in. Each is its
	// own producer.
	case fig == "faults":
		cfg := experiments.DefaultFaultsConfig(seed)
		if mtbf > 0 {
			cfg.Faults.MTBF = mtbf
		}
		if mttr > 0 {
			cfg.Faults.MTTR = mttr
		}
		cfg.Trace = trace
		res, err := experiments.Faults(seed, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		reg = res.Reg
	case fig == "soak":
		// The streaming endurance scenario, sized for long runs.
		cfg := experiments.DefaultSoakConfig()
		if requests > 0 {
			cfg.Requests = requests
		}
		cfg.Trace = trace
		start := time.Now()
		res, err := experiments.Soak(seed, cfg)
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprint(w, res.Render())
		// The wall-clock and heap lines are machine-dependent, so they
		// stay out of Render() — the report above is seed-deterministic.
		fmt.Fprintf(w, "replay: %.2fs wall (%.0f req/s), peak heap %.1f MiB\n\n",
			elapsed, float64(cfg.Requests)/elapsed, float64(res.PeakHeapBytes)/(1<<20))
		reg = res.Reg
	case fig == "elastic":
		// Static vs mid-job resize on the same seed.
		cfg := experiments.DefaultElasticConfig()
		cfg.Trace = trace
		res, err := experiments.Elastic(seed, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		reg = res.Reg
	// Otherwise the ops scenario is the producer; an export request
	// forces it even when -fig selects only classic figures.
	case want("ops") || metricsPath != "" || tracePath != "":
		cfg := experiments.DefaultOpsConfig(seed)
		cfg.Trace = trace
		res, err := experiments.Ops(seed, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		reg = res.Reg
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err == nil {
			err = reg.WriteMetricsJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}
