package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// Options configures one invocation.
type Options struct {
	Workload string // a workload name, or "all"
	Seed     int64
	Reps     int // measured plants; 0 means the workload's own count
	Trace    bool
	// Calibrate makes the process time the speed-calibration kernel and
	// print the result, nothing else; see speed.measure.
	Calibrate bool
	Out       string   // full JSON result file
	Spans     string   // JSONL span sample of the traced pass
	WorkDir   string   // where the traced pass keeps its event file
	Spec      string   // BENCHMARK.json, for -compare bounds
	Compare   []string // base and new result files
	sizes     sizes
}

// sizes are the fixed per-rep work counts; tests shrink them.
type sizes struct {
	soak, elastic        int // requests per rep
	hopCycles, k16Cycles int // cycles per client per window
}

func defaultSizes() sizes {
	return sizes{soak: 20_000, elastic: 5_000, hopCycles: 25_000, k16Cycles: 2_500}
}

// workloadDef is one named workload.
type workloadDef struct {
	name     string
	features []string
	// plants is how many fresh plants one run measures, a fixed count so
	// that a seed's deterministic figures never depend on machine speed.
	// Each count is sized for 20–25 s of measuring on the 2-core machine
	// the baselines were taken on (BENCHMARK.json's run_seconds).
	plants int
	run    func(o Options) (*Result, error)
}

// workloads contrast the layers (BENCHMARK.json and README.md give each
// one's reason): dense cloudsim bookkeeping is heavy in soak* and absent
// from svc-*; the placement scan is heavy only in svc-16k; delta
// placement and shrink run only in soak-elastic and svc-16k; the service
// hops are the whole cost of svc-hop; obs encoding is heavy in
// soak-elastic and absent from svc-*, which run with obs off.
var workloads = []workloadDef{
	{"soak", []string{fStream}, 44, func(o Options) (*Result, error) { return runSoak(o, false) }},
	{"soak-elastic", []string{fStream, fResize, fList}, 48, func(o Options) (*Result, error) { return runSoak(o, true) }},
	{"svc-hop", []string{fSvc, fList}, 36, func(o Options) (*Result, error) { return runSvc(o, hopParams(o)) }},
	{"svc-16k", []string{fSvc, fResize, fList}, 32, func(o Options) (*Result, error) { return runSvc(o, k16Params(o)) }},
}

func hopParams(o Options) svcParams {
	return svcParams{clouds: 4, racks: 5, nodesPerRack: 10, types: 2, uniformCap: 4, cycles: o.sizes.hopCycles, rawTail: true}
}

func k16Params(o Options) svcParams {
	return svcParams{clouds: 10, racks: 40, nodesPerRack: 40, types: 3, queueCap: -1, fill: 0.6, resize: true, cycles: o.sizes.k16Cycles}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ParseArgs parses the command line. Bad values are errors, never
// panics.
func ParseArgs(args []string, stderr io.Writer) (Options, error) {
	fs := flag.NewFlagSet("affinitybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := Options{sizes: defaultSizes()}
	fs.StringVar(&o.Workload, "workload", "all", "workload to run: all, soak, soak-elastic, svc-hop or svc-16k")
	fs.Int64Var(&o.Seed, "seed", 2012, "capacity seed; the workload uses seed+1, faults seed+2, client w seed+100+w")
	fs.IntVar(&o.Reps, "reps", 0, "measure this many plants instead of the workload's fixed count")
	fs.Float64("seconds", 0, "accepted and ignored, for harnesses that pass a run length: a run's length is its plant count")
	trace := fs.Int("trace", 0, "1 adds the traced pass and reports the per-layer ledger")
	calibrate := fs.Bool("calibrate", false, "time the speed-calibration kernel and print the seconds it took")
	fs.StringVar(&o.Out, "out", "", "write the full result as JSON to this file")
	fs.StringVar(&o.Spans, "spans", "", "write the traced pass's 1-in-64 span sample to this JSONL file")
	fs.StringVar(&o.WorkDir, "workdir", "", "directory for the traced pass's event file (default: the system temp dir)")
	fs.StringVar(&o.Spec, "spec", "BENCHMARK.json", "benchmark definition holding the -compare bounds")
	compare := fs.Bool("compare", false, "compare two -out files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return o, errors.New("-compare needs exactly two result files")
		}
		o.Compare = fs.Args()
		return o, nil
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o.Calibrate = *calibrate
	if _, ok := findWorkload(o.Workload); !ok && o.Workload != "all" {
		return o, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Reps < 0 {
		return o, fmt.Errorf("-reps must not be negative, got %d", o.Reps)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	o.Trace = *trace == 1
	return o, nil
}

// validate rejects non-positive work sizes.
func (s sizes) validate() error {
	if s.soak <= 0 || s.elastic <= 0 || s.hopCycles <= 0 || s.k16Cycles <= 0 {
		return fmt.Errorf("work sizes must be positive: %+v", s)
	}
	return nil
}

// Main runs the command and returns its exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	o, err := ParseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "affinitybench:", err)
		return 2
	}
	if o.Calibrate {
		if _, err := fmt.Fprintln(stdout, fmtFloat(calibrateKernel())); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
		return 0
	}
	if o.Compare != nil {
		ok, err := Compare(o.Spec, o.Compare[0], o.Compare[1], stdout)
		if err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if o.Workload == "all" {
		return runAll(o, stdout, stderr)
	}
	res, err := Run(o)
	if err != nil {
		fmt.Fprintf(stderr, "affinitybench: %s: %v\n", o.Workload, err)
		return 1
	}
	if err := emit(res, o, stdout); err != nil {
		fmt.Fprintln(stderr, "affinitybench:", err)
		return 1
	}
	return 0
}

// Run measures one workload. Every correctness gate must pass before a
// result exists; a failed gate is the returned error.
func Run(o Options) (*Result, error) {
	w, ok := findWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err := o.sizes.validate(); err != nil {
		return nil, err
	}
	if o.Reps == 0 {
		o.Reps = w.plants
	}
	res, err := w.run(o)
	if err != nil {
		return nil, err
	}
	res.Correct = true
	return res, nil
}

func emit(res *Result, o Options, stdout io.Writer) error {
	if o.Out != "" {
		if err := writeReport(o.Out, Report{Results: []*Result{res}}); err != nil {
			return err
		}
	}
	if err := res.WriteLines(stdout); err != nil {
		return err
	}
	line, err := res.Line()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own, so heap and
// GC state cannot leak from one workload into the next, and merges their
// -out files.
func runAll(o Options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "affinitybench:", err)
		return 1
	}
	code := 0
	var rep Report
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.Seed, 10),
			"-reps", strconv.Itoa(o.Reps), "-workdir", o.WorkDir}
		if o.Trace {
			args = append(args, "-trace", "1")
		}
		if o.Spans != "" {
			args = append(args, "-spans", o.Spans+"."+w.name)
		}
		part := ""
		if o.Out != "" {
			part = o.Out + "." + w.name + ".part"
			args = append(args, "-out", part)
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		err := cmd.Run()
		if _, werr := stdout.Write(buf.Bytes()); werr != nil {
			fmt.Fprintln(stderr, "affinitybench:", werr)
			return 1
		}
		if err != nil {
			fmt.Fprintf(stderr, "affinitybench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		if part != "" {
			r, err := readReport(part)
			if rerr := os.Remove(part); err == nil {
				err = rerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "affinitybench: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			rep.Results = append(rep.Results, r.Results...)
		}
	}
	if o.Out != "" {
		if err := writeReport(o.Out, rep); err != nil {
			fmt.Fprintln(stderr, "affinitybench:", err)
			return 1
		}
	}
	return code
}
