package main

import (
	"math"
	"sort"

	"affinitycluster/internal/stats"
)

// percentile is the p-th percentile (0–100) of a sorted copy of xs, as
// stats.Percentile defines it. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(xs, 50) }

// spread is the distance between the first and third quartiles of xs as
// a share of their median, with the quartiles placed the way Python's
// statistics.quantiles(xs, n=4) places them (the "exclusive" method), so
// the figure printed here is the one an outside check computes. Fewer
// than two samples, or a zero median, have no spread: 0.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// statistics.quantiles' exclusive method, integer math included:
		// j is clamped to [1, n-1] and delta may then extrapolate.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	m := stats.Percentile(s, 50)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
