package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Value is one reported metric.
type Value struct {
	V    float64 `json:"value"`
	Unit string  `json:"unit"`
	// N is the number of samples behind V: reps or windows for a median
	// of per-rep figures, calls or requests for a percentile.
	N int `json:"n"`
	// Samples are the per-rep (or per-window) figures V is the median of,
	// kept so -compare can judge run-to-run spread.
	Samples []float64 `json:"samples,omitempty"`
}

// Result is one workload's outcome.
type Result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Plants    int              `json:"plants"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

func newResult(w string, seed int64, plants int, trace bool) *Result {
	return &Result{Workload: w, Seed: seed, Plants: plants, Trace: trace, Metrics: map[string]Value{}}
}

// set records a metric from the catalog; an unknown name is a bug.
func (r *Result) set(name string, v float64, n int) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("affinitybench: metric not in catalog: " + name)
	}
	r.Metrics[name] = Value{V: v, Unit: m.unit, N: n}
}

// setMedian records the median of per-rep samples.
func (r *Result) setMedian(name string, samples []float64) {
	r.set(name, median(samples), len(samples))
	v := r.Metrics[name]
	v.Samples = append([]float64(nil), samples...)
	r.Metrics[name] = v
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteLines prints one line per measured metric, in catalog order:
// "workload metric value unit n=<samples>".
func (r *Result) WriteLines(w io.Writer) error {
	for _, m := range catalog {
		v, ok := r.Metrics[m.name]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s %s %s n=%d\n", r.Workload, m.name, fmtFloat(v.V), v.Unit, v.N); err != nil {
			return err
		}
	}
	return nil
}

// resultLine is the one-object summary printed last: exactly the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one (0 for a layer the workload does not exercise).
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line renders the summary object. A metric that applies to the
// workload but was not measured is an error.
func (r *Result) Line() ([]byte, error) {
	w, ok := findWorkload(r.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.Workload)
	}
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for _, m := range catalog {
		if !m.inMode(r.Trace) {
			continue
		}
		v, measured := r.Metrics[m.name]
		if !measured && m.applies(w.features) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v.V)
		}
		l.Metrics[m.name] = lineMetric{Value: v.V, Unit: m.unit}
	}
	return json.Marshal(l)
}

// Report is the -out file: every workload's full result.
type Report struct {
	Results []*Result `json:"results"`
}

func writeReport(path string, rep Report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
