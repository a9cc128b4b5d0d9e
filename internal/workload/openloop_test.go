package workload

import (
	"math"
	"testing"

	"affinitycluster/internal/model"
)

func drainOpenLoop(t *testing.T, seed int64, count int, cfg OpenLoopConfig) []model.TimedRequest {
	t.Helper()
	g, err := NewOpenLoop(seed, count, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []model.TimedRequest
	for {
		r, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// TestOpenLoopStreamInvariants: the generator honors the RequestSource
// contract (strictly increasing IDs, non-decreasing arrivals) and its own
// bounds (size truncation, hold truncation, vector shape).
func TestOpenLoopStreamInvariants(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	reqs := drainOpenLoop(t, 11, 5000, cfg)
	if len(reqs) != 5000 {
		t.Fatalf("emitted %d requests, want 5000", len(reqs))
	}
	prev := model.TimedRequest{ID: -1}
	for i, r := range reqs {
		if r.ID != model.RequestID(i) {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.Arrival < prev.Arrival {
			t.Fatalf("request %d arrives at %v before %v", i, r.Arrival, prev.Arrival)
		}
		if len(r.Vector) != cfg.Types {
			t.Fatalf("request %d has %d types", i, len(r.Vector))
		}
		if n := r.Vector.TotalVMs(); n < cfg.SizeMin || n > cfg.SizeMax {
			t.Fatalf("request %d asks for %d VMs, outside [%d, %d]", i, n, cfg.SizeMin, cfg.SizeMax)
		}
		if r.Hold <= 0 || r.Hold > holdMaxPeriods*cfg.withDefaults().DiurnalPeriod {
			t.Fatalf("request %d holds %v", i, r.Hold)
		}
		prev = r
	}
}

// TestOpenLoopDeterminism: same seed, same stream; different seed,
// different stream.
func TestOpenLoopDeterminism(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	a := drainOpenLoop(t, 5, 500, cfg)
	b := drainOpenLoop(t, 5, 500, cfg)
	c := drainOpenLoop(t, 6, 500, cfg)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Hold != b[i].Hold || a[i].Vector.TotalVMs() != b[i].Vector.TotalVMs() {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals")
	}
}

// TestOpenLoopMeanRate: the long-run arrival rate of the thinned process
// converges to BaseRate (the sinusoid averages out over full periods),
// within sampling tolerance. The period is shrunk so the sample spans
// many complete cycles.
func TestOpenLoopMeanRate(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	cfg.BaseRate = 2
	cfg.DiurnalPeriod = 1000
	const n = 40000
	reqs := drainOpenLoop(t, 3, n, cfg)
	span := reqs[n-1].Arrival - reqs[0].Arrival
	rate := float64(n-1) / span
	if math.Abs(rate-cfg.BaseRate)/cfg.BaseRate > 0.05 {
		t.Errorf("empirical rate %.3f, want ≈ %v", rate, cfg.BaseRate)
	}
}

// TestOpenLoopDiurnalModulation: with strong modulation, the peak-phase
// quarter of the day receives measurably more arrivals than the trough
// quarter.
func TestOpenLoopDiurnalModulation(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	cfg.BaseRate = 1
	cfg.DiurnalAmplitude = 0.8
	cfg.DiurnalPeriod = 2000 // many full cycles within the sample
	reqs := drainOpenLoop(t, 9, 60000, cfg)
	var peak, trough int
	for _, r := range reqs {
		phase := math.Mod(r.Arrival, cfg.DiurnalPeriod) / cfg.DiurnalPeriod
		switch {
		case phase >= 0.125 && phase < 0.375: // sin ≈ +1 around phase 0.25
			peak++
		case phase >= 0.625 && phase < 0.875: // sin ≈ −1 around phase 0.75
			trough++
		}
	}
	if trough == 0 || float64(peak)/float64(trough) < 2 {
		t.Errorf("peak/trough = %d/%d, want a pronounced diurnal swing", peak, trough)
	}
}

// TestOpenLoopHeavyTailedSizes: the size distribution actually has a
// tail — most requests are small, but the cap is reachable.
func TestOpenLoopHeavyTailedSizes(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	reqs := drainOpenLoop(t, 17, 30000, cfg)
	small, large := 0, 0
	maxSeen := 0
	for _, r := range reqs {
		n := r.Vector.TotalVMs()
		if n <= 2 {
			small++
		}
		if n >= 16 {
			large++
		}
		if n > maxSeen {
			maxSeen = n
		}
	}
	if small < len(reqs)/2 {
		t.Errorf("only %d/%d requests are small; Pareto body missing", small, len(reqs))
	}
	if large == 0 {
		t.Error("no request reached 16 VMs; tail missing")
	}
	if maxSeen > cfg.SizeMax {
		t.Errorf("size %d exceeds cap %d", maxSeen, cfg.SizeMax)
	}
}

// TestOpenLoopEmpiricalMeans: the mean cluster size matches the exact
// mean of the sampling procedure, a Pareto(α, SizeMin) floored and
// redrawn past SizeMax, which yields n with probability
// (F(n+1) − F(n)) / F(SizeMax+1). Truncation only cuts the lifetime's
// tail, so the mean lifetime exceeds the untruncated lognormal mean
// e^(μ+σ²/2) by no more than sampling error.
func TestOpenLoopEmpiricalMeans(t *testing.T) {
	cfg := DefaultOpenLoopConfig()
	reqs := drainOpenLoop(t, 21, 30000, cfg)
	var vms, hold float64
	for _, r := range reqs {
		vms += float64(r.Vector.TotalVMs())
		hold += r.Hold
	}
	vms /= float64(len(reqs))
	hold /= float64(len(reqs))

	cdf := func(x float64) float64 { return 1 - math.Pow(float64(cfg.SizeMin)/x, cfg.SizeShape) }
	var size float64
	for n := cfg.SizeMin; n <= cfg.SizeMax; n++ {
		size += float64(n) * (cdf(float64(n+1)) - cdf(float64(n)))
	}
	size /= cdf(float64(cfg.SizeMax + 1))
	if math.Abs(vms-size)/size > 0.05 {
		t.Errorf("empirical mean size %.3f vs exact %.3f", vms, size)
	}
	if bound := cfg.HoldMedian * math.Exp(cfg.HoldSigma*cfg.HoldSigma/2); hold > bound*1.05 {
		t.Errorf("empirical mean hold %.1f exceeds the lognormal mean %.1f", hold, bound)
	}
}

// TestOpenLoopConfigRejected: invalid configurations fail construction.
func TestOpenLoopConfigRejected(t *testing.T) {
	base := DefaultOpenLoopConfig()
	mutations := map[string]func(*OpenLoopConfig){
		"zero rate":      func(c *OpenLoopConfig) { c.BaseRate = 0 },
		"amplitude ≥ 1":  func(c *OpenLoopConfig) { c.DiurnalAmplitude = 1 },
		"negative amp":   func(c *OpenLoopConfig) { c.DiurnalAmplitude = -0.1 },
		"no types":       func(c *OpenLoopConfig) { c.Types = -1 },
		"shape ≤ 1":      func(c *OpenLoopConfig) { c.SizeShape = 1 },
		"size inversion": func(c *OpenLoopConfig) { c.SizeMin = 10; c.SizeMax = 5 },
		"inf rate":       func(c *OpenLoopConfig) { c.BaseRate = math.Inf(1) },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if _, err := NewOpenLoop(1, 10, cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := NewOpenLoop(1, 0, base); err == nil {
		t.Error("zero count accepted")
	}
}
