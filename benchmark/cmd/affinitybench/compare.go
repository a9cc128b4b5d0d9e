package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// specMetric is one end-to-end metric of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Verdicts of one comparison row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges new against base for a metric that may worsen by bound
// (a share of base). When either side's median is less certain than the
// bound the difference is unresolved, unless every new sample beats
// every base sample (or the reverse, which is then a regression). An
// exact metric has no spread and a bound of 0: any move counts.
func verdict(m specMetric, base, cur Value, exact bool) (delta float64, v string) {
	delta = frac(cur.V-base.V, base.V)
	worsening := delta
	if m.Better == "higher" {
		worsening = -delta
	}
	bound := m.Bound
	switch {
	case exact:
		bound = 0
	case max(medianSpread(base.Samples), medianSpread(cur.Samples)) > bound:
		switch {
		case dominates(m, cur.Samples, base.Samples):
			return delta, better
		case dominates(m, base.Samples, cur.Samples):
			return delta, worse
		}
		return delta, unresolved
	}
	switch {
	case worsening > bound:
		return delta, worse
	case worsening < -bound:
		return delta, better
	}
	return delta, same
}

// medianSpread estimates how far the median of xs moves from one run to
// the next: the samples' own spread shrunk by √n, as the spread of a
// median of n independent samples does. The samples are the run's
// plants (or windows), whose seeds differ, so their own spread is
// mostly plant-to-plant variation, not run-to-run noise.
func medianSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return spread(xs) / math.Sqrt(float64(len(xs)))
}

// dominates reports whether every sample of a reads better than every
// sample of b.
func dominates(m specMetric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && x <= y) || (m.Better != "higher" && x >= y) {
				return false
			}
		}
	}
	return true
}

// failTol is how far failed_frac may grow where it is not exact: the
// service workloads' refused grows depend on how the two clients' calls
// interleave.
const failTol = 0.001

// Compare prints one row per workload × end-to-end metric of two -out
// files, plus rows for failed_frac and, where exact, wait_mean_s, and
// reports whether new is acceptable: no metric worse than its bound.
func Compare(specPath, basePath, newPath string, w io.Writer) (bool, error) {
	s, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	return compareReports(s, base, cur, w)
}

func compareReports(s spec, base, cur Report, w io.Writer) (bool, error) {
	ok := true
	if _, err := fmt.Fprintf(w, "%-13s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict"); err != nil {
		return false, err
	}
	row := func(workload, metric string, bv, cv, delta float64, bound, v string) error {
		if v == worse {
			ok = false
		}
		_, err := fmt.Fprintf(w, "%-13s %-16s %14.6g %14.6g %+8.2f%% %7s  %s\n", workload, metric, bv, cv, 100*delta, bound, v)
		return err
	}
	for _, b := range base.Results {
		var c *Result
		for _, r := range cur.Results {
			if r.Workload == b.Workload {
				c = r
			}
		}
		if c == nil {
			return false, fmt.Errorf("workload %s missing from the new results", b.Workload)
		}
		wd, found := findWorkload(b.Workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", b.Workload)
		}
		// Deterministic figures of runs over the same plants must agree
		// exactly.
		sameInputs := b.Seed == c.Seed && b.Plants == c.Plants
		exact := func(name string) bool {
			m, _ := lookupMetric(name)
			return sameInputs && m.exactOn != "" && slices.Contains(wd.features, m.exactOn)
		}
		for _, m := range s.EndToEnd {
			bv, okB := b.Metrics[m.Name]
			cv, okC := c.Metrics[m.Name]
			if !okB || !okC {
				return false, fmt.Errorf("%s: metric %s missing", b.Workload, m.Name)
			}
			ex := exact(m.Name)
			delta, v := verdict(m, bv, cv, ex)
			bound := fmt.Sprintf("%.1f%%", 100*m.Bound)
			if ex {
				bound = "exact"
			}
			if err := row(b.Workload, m.Name, bv.V, cv.V, delta, bound, v); err != nil {
				return false, err
			}
		}
		// Per-layer figures that may not grow: failed_frac by at most
		// failTol (not at all where exact), wait_mean_s not at all where
		// exact.
		for _, name := range []string{"failed_frac", "wait_mean_s"} {
			bv, okB := b.Metrics[name]
			cv, okC := c.Metrics[name]
			tol, bound := 0.0, "exact"
			switch {
			case !okB || !okC:
				continue
			case exact(name):
			case name == "failed_frac":
				tol, bound = failTol, fmtFloat(failTol)
			default:
				continue
			}
			v := same
			switch {
			case cv.V > bv.V+tol:
				v = worse
			case cv.V < bv.V-tol:
				v = better
			}
			if err := row(b.Workload, name, bv.V, cv.V, frac(cv.V-bv.V, bv.V), bound, v); err != nil {
				return false, err
			}
		}
	}
	return ok, nil
}
