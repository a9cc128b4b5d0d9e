package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Errorf("p50 = %v", got)
	}
}

// TestEmptySamples is the regression test for the empty-sample panic: a
// simulation that serves nothing has an empty sample, and the stats
// layer must degrade, not crash.
func TestEmptySamples(t *testing.T) {
	for _, p := range []float64{0, 50, 100} {
		if got := Percentile(nil, p); !math.IsNaN(got) {
			t.Errorf("Percentile(nil, %v) = %v, want NaN", p, got)
		}
		if got := Percentile([]float64{}, p); !math.IsNaN(got) {
			t.Errorf("Percentile([], %v) = %v, want NaN", p, got)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw [10]float64, p1Raw, p2Raw uint8) bool {
		xs := raw[:]
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		sort.Float64s(xs)
		p1 := float64(p1Raw) / 255 * 100
		p2 := float64(p2Raw) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		return v1 <= v2 && v1 >= xs[0] && v2 <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.Add("alpha", 3.14159)
	tab.Add("b", 10)
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
	// Columns align: every line has the same position for column 2.
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[3], "b    ") {
		t.Errorf("alignment wrong:\n%s", out)
	}
}

func TestTableWithoutHeader(t *testing.T) {
	tab := &Table{}
	tab.Add(1, 2)
	out := tab.String()
	if strings.Contains(out, "-") {
		t.Errorf("headerless table has a rule:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "bb"}, []float64{2, 4}, 8)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("chart lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 8)) {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 4 {
		t.Errorf("half bar wrong: %q", lines[0])
	}
	// Zero and tiny values.
	out = BarChart([]string{"zero", "tiny", "big"}, []float64{0, 0.001, 100}, 10)
	if !strings.Contains(out, "tiny | # ") {
		t.Errorf("tiny value not rendered with minimal bar:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched BarChart did not panic")
		}
	}()
	BarChart([]string{"a"}, []float64{1, 2}, 10)
}

func TestSeriesRendering(t *testing.T) {
	s1 := &Series{Name: "online"}
	s2 := &Series{Name: "global"}
	for i := 0; i < 3; i++ {
		s1.Append(float64(i), float64(10+i))
		s2.Append(float64(i), float64(9+i))
	}
	out := RenderSeries("request", s1, s2)
	if !strings.Contains(out, "online") || !strings.Contains(out, "global") {
		t.Errorf("series output:\n%s", out)
	}
	if RenderSeries("x") != "" {
		t.Error("empty series list should render empty")
	}
	// Ragged series: missing Y renders empty, no panic.
	s3 := &Series{Name: "short"}
	s3.Append(0, 1)
	out = RenderSeries("x", s1, s3)
	if !strings.Contains(out, "short") {
		t.Errorf("ragged output:\n%s", out)
	}
}
