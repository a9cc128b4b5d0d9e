// Streaming quantile estimation for open-loop runs: the retained-sample
// Percentile path is exact but O(served) in memory, which the soak
// scenario (millions of requests) cannot afford. Quantile is the O(1)
// alternative — a fixed-bucket histogram sketch whose quantile estimates
// carry a documented, testable error bound.

package stats

import (
	"fmt"
	"math"
)

// Quantile is a streaming fixed-bucket quantile sketch over [Min, Max]:
// equal-width buckets count observations, and quantiles are read back by
// walking the cumulative distribution with linear interpolation inside
// the crossing bucket.
//
// Error bound: for samples inside [Min, Max], an estimated quantile is
// within one bucket width — (Max−Min)/buckets — of the exact sample
// quantile (pinned by TestQuantileErrorBound). Samples outside the range
// are counted as mass clamped to Min or Max, so quantiles that fall in
// the clamped mass are only bounded by the range itself; size the range
// to the data (Under/Over report how much escaped).
//
// The sketch also supports Remove, the exact inverse of Observe — the
// cloud simulator needs it to roll back the served sample of a cluster
// torn down by a failure. obs.Histogram counts through a Quantile under
// its mutex.
type Quantile struct {
	min, max float64
	width    float64
	counts   []int64
	under    int64 // observations below min (clamped to min for quantiles)
	over     int64 // observations above max (clamped to max for quantiles)
	sum      float64
	n        int64
}

// NewQuantile creates a sketch with the given bucket count; it panics on
// a non-positive count or an empty range, which are programming errors.
func NewQuantile(min, max float64, buckets int) *Quantile {
	if buckets <= 0 || !(max > min) {
		panic(fmt.Sprintf("stats: NewQuantile(%v, %v, %d) invalid", min, max, buckets))
	}
	return &Quantile{
		min:    min,
		max:    max,
		width:  (max - min) / float64(buckets),
		counts: make([]int64, buckets),
	}
}

// bucket maps an in-range sample to its bucket index.
func (q *Quantile) bucket(x float64) int {
	i := int((x - q.min) / (q.max - q.min) * float64(len(q.counts)))
	if i == len(q.counts) { // x == max lands in the last bucket
		i--
	}
	return i
}

// Observe adds one sample. NaN is ignored (it belongs to no bucket).
func (q *Quantile) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	q.sum += x
	q.n++
	switch {
	case x < q.min:
		q.under++
	case x > q.max:
		q.over++
	default:
		q.counts[q.bucket(x)]++
	}
}

// Remove subtracts one previously observed sample — the exact inverse of
// Observe(x). Removing a value that was never observed corrupts the
// sketch; callers own that pairing.
func (q *Quantile) Remove(x float64) {
	if math.IsNaN(x) {
		return
	}
	q.sum -= x
	q.n--
	switch {
	case x < q.min:
		q.under--
	case x > q.max:
		q.over--
	default:
		q.counts[q.bucket(x)]--
	}
}

// Count returns the number of live observations.
func (q *Quantile) Count() int64 { return q.n }

// Sum returns the sum of live observations.
func (q *Quantile) Sum() float64 { return q.sum }

// Mean returns the average of live observations (0 when empty).
func (q *Quantile) Mean() float64 {
	if q.n == 0 {
		return 0
	}
	return q.sum / float64(q.n)
}

// Counts returns a copy of the per-bucket counts of in-range
// observations, lowest bucket first.
func (q *Quantile) Counts() []int64 { return append([]int64(nil), q.counts...) }

// Under and Over report the clamped out-of-range mass.
func (q *Quantile) Under() int64 { return q.under }
func (q *Quantile) Over() int64  { return q.over }

// ErrorBound returns the worst-case estimation error for quantiles that
// land inside [Min, Max]: one bucket width.
func (q *Quantile) ErrorBound() float64 { return q.width }

// Value estimates the p-th percentile (0–100, matching Percentile). An
// empty sketch returns NaN, mirroring Percentile on an empty sample.
func (q *Quantile) Value(p float64) float64 {
	if q.n <= 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// Nearest-rank target over the live count, like Percentile's
	// rank = p/100·(n−1), then walk the CDF: under-mass sits at min,
	// over-mass at max.
	rank := p / 100 * float64(q.n-1)
	target := int64(math.Floor(rank))
	cum := q.under
	if target < cum {
		return q.min
	}
	for i, c := range q.counts {
		if c <= 0 {
			continue
		}
		if target < cum+c {
			// Interpolate within the bucket by the rank's position in
			// the bucket's mass.
			lo := q.min + float64(i)*q.width
			frac := (float64(target) - float64(cum) + (rank - math.Floor(rank))) / float64(c)
			if frac > 1 {
				frac = 1
			}
			return lo + frac*q.width
		}
		cum += c
	}
	return q.max
}
