package main

import (
	"math"
	"testing"
)

// TestSpreadMatchesPythonQuantiles pins spread to statistics.quantiles(xs,
// n=4), the definition an outside check uses.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3, 1, 2}, 1.0},
		{[]float64{5, 5}, 0},
		{[]float64{1.5, 2.5, 10, -3, 7}, 3.7},
		{[]float64{4}, 0},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
