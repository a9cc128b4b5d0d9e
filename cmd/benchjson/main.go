// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark runs can be checked in and
// diffed (BENCH_placement.json) or archived as CI artifacts without
// scraping free-form text downstream.
//
//	go test -run '^$' -bench BenchmarkPlaceScale -benchmem -benchtime=100x . | benchjson
//
// With -compare it gates a new JSON report on stdin against a base
// report instead: it prints every arm's ns/op and allocs/op change and
// exits 1 when an arm present in both reports allocates more than one
// allocation per op above the base. Arms only one report has are
// listed, not failed, and ns/op never fails the gate.
//
//	benchjson -compare base/BENCH_service.json < BENCH_service.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. Metrics holds every "value unit" pair the
// line reported: ns/op and B/op and allocs/op when -benchmem is on, plus
// any custom b.ReportMetric units.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole run: the environment header lines go test prints
// followed by the benchmark results in input order.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// parse consumes go test -bench output. Unrecognized lines (PASS, ok,
// test logs) are skipped; malformed Benchmark lines are an error so a
// truncated run cannot silently produce an empty report, and so are
// single-iteration results — one iteration means the run was invoked
// with -benchtime=1x (or an op outran the benchtime) and the figures
// are unaveraged noise that must not be checked in. Exception: a
// single-iteration result that reports custom metrics (anything beyond
// the stock ns/op, B/op, allocs/op, MB/s columns) is accepted — soak
// benchmarks run once by design, with each "iteration" internally
// averaging over a huge request count, and their req/s and
// peak-heap-bytes figures are the deliverable.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if res.Iterations == 1 && !hasCustomMetrics(res) {
				return nil, fmt.Errorf("benchjson: %s ran a single iteration — rerun with a real -benchtime so the figures are averaged", res.Name)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// hasCustomMetrics reports whether the result carries any b.ReportMetric
// unit beyond the testing package's stock columns.
func hasCustomMetrics(res Result) bool {
	for unit := range res.Metrics {
		switch unit {
		case "ns/op", "B/op", "allocs/op", "MB/s":
		default:
			return true
		}
	}
	return false
}

// parseLine splits "BenchmarkX-8  10  123 ns/op  45 B/op" into a Result.
func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("benchjson: short benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("benchjson: bad iteration count in %q: %v", line, err)
	}
	res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// Strip the trailing -GOMAXPROCS suffix so names compare across machines.
	if i := strings.LastIndex(res.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Name = res.Name[:i]
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("benchjson: bad metric value in %q: %v", line, err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, nil
}

func main() {
	base := flag.String("compare", "", "judge the JSON report on stdin against this base report; exit 1 when an arm's allocs/op rose by more than one")
	flag.Parse()
	if *base != "" {
		os.Exit(runCompare(*base, os.Stdin, os.Stdout, os.Stderr))
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
