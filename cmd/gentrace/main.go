// Command gentrace generates a seeded random request trace (the paper's
// simulation workload) on stdout or to a file, for replay with the
// library's trace package or external tooling. The trace is JSONL: a
// header line, then one request per line, written as it is generated —
// the openloop scenario streams straight from its generator, so
// multi-million-request traces are emitted in O(1) space.
//
// Usage:
//
//	gentrace [-seed N] [-count N] [-types N]
//	         [-scenario normal|small|openloop]
//	         [-interarrival S] [-hold S] [-out trace.jsonl]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"affinitycluster/internal/model"
	"affinitycluster/internal/trace"
	"affinitycluster/internal/workload"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	count := flag.Int("count", 20, "number of requests")
	types := flag.Int("types", 3, "VM type count")
	scenario := flag.String("scenario", "normal", "request scenario: normal, small, or openloop")
	out := flag.String("out", "", "output path (default stdout)")
	interarrival := flag.Float64("interarrival", 30, "mean interarrival seconds")
	hold := flag.Float64("hold", 300, "mean (openloop: median) hold seconds")
	flag.Parse()

	if err := run(*seed, *count, *types, *scenario, *out, *interarrival, *hold); err != nil {
		fmt.Fprintln(os.Stderr, "gentrace:", err)
		os.Exit(1)
	}
}

func run(seed int64, count, types int, scenario, out string, interarrival, hold float64) error {
	// Validate the numeric flags up front: a bad value must exit non-zero
	// with a flag-shaped message, not surface as a downstream generator
	// error (or, worse, emit a half-written trace). !(x > 0) also catches
	// NaN, which every comparison is false for.
	if count <= 0 {
		return fmt.Errorf("-count must be positive, got %d", count)
	}
	if types <= 0 {
		return fmt.Errorf("-types must be positive, got %d", types)
	}
	if !(interarrival > 0) || math.IsInf(interarrival, 0) {
		return fmt.Errorf("-interarrival must be positive and finite, got %v", interarrival)
	}
	if !(hold > 0) || math.IsInf(hold, 0) {
		return fmt.Errorf("-hold must be positive and finite, got %v", hold)
	}

	desc := fmt.Sprintf("seed %d, %s scenario, %d requests", seed, scenario, count)
	if scenario == "openloop" {
		cfg := workload.DefaultOpenLoopConfig()
		cfg.BaseRate = 1 / interarrival
		cfg.Types = types
		cfg.HoldMedian = hold
		gen, err := workload.NewOpenLoop(seed, count, cfg)
		if err != nil {
			return err
		}
		return writeStream(out, desc, types, gen)
	}

	var sc workload.Scenario
	switch scenario {
	case "normal":
		sc = workload.Normal
	case "small":
		sc = workload.Small
	default:
		return fmt.Errorf("unknown scenario %q", scenario)
	}
	reqs, err := workload.RandomRequests(seed, count, types, sc, workload.DefaultRequestConfig())
	if err != nil {
		return err
	}
	cfg := workload.DefaultArrivalConfig()
	cfg.MeanInterarrival = interarrival
	cfg.MeanHold = hold
	timed, err := workload.TimedRequests(seed+1, reqs, cfg)
	if err != nil {
		return err
	}
	return writeStream(out, desc, types, model.NewSliceSource(timed))
}

// writeStream drains src into a JSONL trace at path (stdout when empty).
func writeStream(out, desc string, types int, src model.RequestSource) error {
	if out == "" {
		w, err := trace.NewWriter(os.Stdout, desc, types)
		if err != nil {
			return err
		}
		if _, err := trace.CopySource(w, src); err != nil {
			return err
		}
		return w.Flush()
	}
	w, err := trace.CreateFile(out, desc, types)
	if err != nil {
		return err
	}
	if _, err := trace.CopySource(w, src); err != nil {
		_ = w.Close() // the copy error is the interesting one
		return err
	}
	return w.Close()
}
