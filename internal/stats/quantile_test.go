package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuantileErrorBound is the sketch's contract: over seeded draws from
// several distributions, every estimated quantile of in-range data is
// within one bucket width (ErrorBound) of the exact sample percentile.
func TestQuantileErrorBound(t *testing.T) {
	draws := []struct {
		name string
		draw func(r *rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 100 }},
		{"exponential", func(r *rand.Rand) float64 { return -20 * math.Log(1-r.Float64()) }},
		{"bimodal", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 5 + r.Float64()
			}
			return 90 + r.Float64()*5
		}},
		{"constant", func(r *rand.Rand) float64 { return 42 }},
	}
	for _, tc := range draws {
		name, draw := tc.name, tc.draw
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			q := NewQuantile(0, 200, 400)
			var xs []float64
			for i := 0; i < 5000; i++ {
				x := draw(r)
				if x > 200 {
					x = 200 // keep the draw in range; out-of-range is tested separately
				}
				q.Observe(x)
				xs = append(xs, x)
			}
			sorted := append([]float64(nil), xs...)
			sortFloats(sorted)
			for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
				exact := Percentile(sorted, p)
				got := q.Value(p)
				if math.Abs(got-exact) > q.ErrorBound()+1e-9 {
					t.Errorf("%s seed %d p%.0f: sketch %.4f, exact %.4f, bound %.4f",
						name, seed, p, got, exact, q.ErrorBound())
				}
			}
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestQuantileRemoveIsInverse: observing then removing a subset leaves the
// sketch identical to never having observed it.
func TestQuantileRemoveIsInverse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	keepOnly := NewQuantile(0, 100, 50)
	both := NewQuantile(0, 100, 50)
	var removed []float64
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 110 // some samples escape the range
		if i%3 == 0 {
			removed = append(removed, x)
			both.Observe(x)
			continue
		}
		keepOnly.Observe(x)
		both.Observe(x)
	}
	for _, x := range removed {
		both.Remove(x)
	}
	if keepOnly.Count() != both.Count() || keepOnly.Under() != both.Under() || keepOnly.Over() != both.Over() {
		t.Fatalf("counts diverge: keep %d/%d/%d, both %d/%d/%d",
			keepOnly.Count(), keepOnly.Under(), keepOnly.Over(),
			both.Count(), both.Under(), both.Over())
	}
	if math.Abs(keepOnly.Sum()-both.Sum()) > 1e-6 {
		t.Fatalf("sums diverge: %v vs %v", keepOnly.Sum(), both.Sum())
	}
	for _, p := range []float64{0, 50, 95, 100} {
		if a, b := keepOnly.Value(p), both.Value(p); a != b {
			t.Errorf("p%.0f diverges: %v vs %v", p, a, b)
		}
	}
}

// TestQuantileEdgeCases covers the empty sketch, out-of-range clamping,
// and invalid construction.
func TestQuantileEdgeCases(t *testing.T) {
	q := NewQuantile(0, 10, 10)
	if !math.IsNaN(q.Value(50)) {
		t.Error("empty sketch should return NaN")
	}
	q.Observe(math.NaN()) // ignored
	if q.Count() != 0 {
		t.Error("NaN was counted")
	}
	q.Observe(-5)
	q.Observe(15)
	if q.Under() != 1 || q.Over() != 1 {
		t.Errorf("under/over = %d/%d, want 1/1", q.Under(), q.Over())
	}
	if v := q.Value(0); v != 0 {
		t.Errorf("p0 with clamped low mass = %v, want Min", v)
	}
	if v := q.Value(100); v != 10 {
		t.Errorf("p100 with clamped high mass = %v, want Max", v)
	}
	for _, f := range []func(){
		func() { NewQuantile(0, 0, 10) },
		func() { NewQuantile(0, 10, 0) },
		func() { NewQuantile(5, 1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewQuantile did not panic")
				}
			}()
			f()
		}()
	}
}

// TestQuantileMeanTracksExactly: sum/count are exact regardless of
// bucketing, including for out-of-range samples.
func TestQuantileMeanTracksExactly(t *testing.T) {
	q := NewQuantile(0, 10, 4)
	xs := []float64{-3, 2.5, 7.5, 40}
	var sum float64
	for _, x := range xs {
		q.Observe(x)
		sum += x
	}
	if got, want := q.Mean(), sum/float64(len(xs)); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestQuantileBuckets pins the bucket arithmetic: equal-width buckets
// over [Min, Max], with x == Max in the last bucket and out-of-range
// samples counted apart.
func TestQuantileBuckets(t *testing.T) {
	q := NewQuantile(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 11} {
		q.Observe(x)
	}
	if q.Under() != 1 || q.Over() != 1 {
		t.Errorf("under/over = %d/%d", q.Under(), q.Over())
	}
	// Buckets of width 2: [0,2)→{0,1.9}, [2,4)→{2}, [4,6)→{5}, [8,10]→{9.9,10}.
	want := []int64{2, 1, 1, 0, 2}
	got := q.Counts()
	for i, w := range want {
		if got[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, got[i], w)
		}
	}
	got[0] = 99
	if q.Counts()[0] != 2 {
		t.Error("Counts aliases the sketch's buckets")
	}
}

// Property: every sample lands in exactly one bucket or out of range.
func TestQuickQuantileConservation(t *testing.T) {
	f := func(raw [20]float64) bool {
		q := NewQuantile(0, 1, 7)
		for _, x := range raw {
			if math.IsNaN(x) {
				x = 0
			}
			q.Observe(math.Abs(math.Mod(x, 2))) // spread over [0, 2): half out of range
		}
		n := q.Under() + q.Over()
		for _, c := range q.Counts() {
			n += c
		}
		return n == int64(len(raw)) && n == q.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
