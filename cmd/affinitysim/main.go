// Command affinitysim runs the paper's simulation experiments (Figs. 2–6)
// on the 3-rack × 10-node cloud and prints figure-shaped terminal output.
// The ops figure runs the instrumented operational scenario (cloud
// simulation + one MapReduce job) and is the producer for the -metrics
// and -trace exports.
//
// Usage:
//
//	affinitysim [-seed N] [-fig 2|3|4|5|6|ops|faults|soak|elastic|all]
//	            [-mtbf N] [-mttr N] [-requests N]
//	            [-metrics out.json] [-trace out.jsonl] [-pprof addr]
//
// The faults, soak, and elastic figures are their own
// -metrics/-trace producers; the soak figure streams its trace to the
// -trace file event by event instead of retaining it.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"affinitycluster/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 2012, "random seed for capacities and requests")
	fig := flag.String("fig", "all", "figure to run: 2, 3, 4, 5, 6, ops, faults, soak, elastic, or all")
	mtbf := flag.Float64("mtbf", 0, "faults figure: mean time between failures (0 = scenario default)")
	mttr := flag.Float64("mttr", 0, "faults figure: mean time to repair (0 = scenario default)")
	requests := flag.Int("requests", 0, "soak figure: open-loop request count (0 = scenario default)")
	metricsPath := flag.String("metrics", "", "write the ops scenario's JSON metric snapshot to this file")
	tracePath := flag.String("trace", "", "write the ops scenario's JSONL event trace to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *pprofAddr != "" {
		//lint:allow goexit the pprof server intentionally lives for the process lifetime
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

func run(w io.Writer, seed int64, fig, metricsPath, tracePath string, mtbf, mttr float64, requests int) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"mtbf", mtbf}, {"mttr", mttr}, {"requests", float64(requests)}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("-%s must be finite and non-negative (0 = scenario default), got %v", f.name, f.v)
		}
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
	// The ops scenario is the metrics/trace producer; force it when an
	// export was requested even if -fig selects only classic figures
	// (the faults figure is its own producer and takes over the exports).
	if want("ops") || (fig != "faults" && fig != "soak" && fig != "elastic" && (metricsPath != "" || tracePath != "")) {
		res, err := experiments.Ops(seed, experiments.DefaultOpsConfig(seed))
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		if metricsPath != "" {
			if err := writeFile(metricsPath, res.WriteMetrics); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
		if tracePath != "" {
			if err := writeFile(tracePath, res.WriteTrace); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	// The faults figure is deliberately NOT part of -fig all: the classic
	// figures stay byte-identical to fault-free builds, and fault runs are
	// an explicit opt-in.
	if fig == "faults" {
		cfg := experiments.DefaultFaultsConfig(seed)
		if mtbf > 0 {
			cfg.Faults.MTBF = mtbf
		}
		if mttr > 0 {
			cfg.Faults.MTTR = mttr
		}
		res, err := experiments.Faults(seed, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		if metricsPath != "" {
			if err := writeFile(metricsPath, res.WriteMetrics); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
		if tracePath != "" {
			if err := writeFile(tracePath, res.WriteTrace); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	// The soak figure, like faults, is NOT part of -fig all: it is the
	// streaming endurance scenario, sized for long runs, and an explicit
	// opt-in.
	if fig == "soak" {
		cfg := experiments.DefaultSoakConfig()
		if requests > 0 {
			cfg.Requests = requests
		}
		// The soak run streams its trace: the sink file must exist before
		// the replay starts, and nothing is retained for a later export.
		var traceFile *os.File
		if tracePath != "" {
			f, err := os.Create(tracePath)
			if err != nil {
				return fmt.Errorf("creating trace file: %w", err)
			}
			traceFile = f
			cfg.Trace = f
		}
		start := time.Now()
		res, err := experiments.Soak(seed, cfg)
		if traceFile != nil {
			if cerr := traceFile.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing trace file: %w", cerr)
			}
		}
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		fmt.Fprint(w, res.Render())
		// The wall-clock and heap lines are machine-dependent, so they
		// stay out of Render() — the report above is seed-deterministic.
		fmt.Fprintf(w, "replay: %.2fs wall (%.0f req/s), peak heap %.1f MiB\n\n",
			elapsed, float64(cfg.Requests)/elapsed, float64(res.PeakHeapBytes)/(1<<20))
		if metricsPath != "" {
			if err := writeFile(metricsPath, res.Reg.WriteMetricsJSON); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
	}
	// The elastic figure — static vs mid-job-resize on the same seed —
	// is, like faults, NOT part of -fig all: classic figure output stays
	// byte-identical and elastic runs are an explicit opt-in.
	if fig == "elastic" {
		res, err := experiments.Elastic(seed, experiments.DefaultElasticConfig())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Render())
		if metricsPath != "" {
			if err := writeFile(metricsPath, res.WriteMetrics); err != nil {
				return fmt.Errorf("writing metrics: %w", err)
			}
		}
		if tracePath != "" {
			if err := writeFile(tracePath, res.WriteTrace); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	if fig != "all" && !contains([]string{"2", "3", "4", "5", "6", "ops", "faults", "soak", "elastic"}, fig) {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
