// Open-loop arrival processes for sustained-load evaluation. The paper's
// scenario generators (RandomRequests + TimedRequests) materialize a
// whole request slice, which is fine at 20 requests and hopeless at a
// million. OpenLoop is the streaming counterpart: a seeded generator
// implementing model.RequestSource that draws one request at a time from
// an open-loop process — Poisson arrivals with diurnal rate modulation,
// heavy-tailed (truncated Pareto) cluster sizes, and heavy-tailed
// (truncated lognormal) lifetimes — the workload shape queueing-theoretic
// evaluations of cluster schedulers run against.
//
// As elsewhere in this package, every distribution is sampled explicitly
// (inverse transform, thinning, Box–Muller) rather than through
// rand.ExpFloat64/NormFloat64, so the seed→sequence mapping is evident
// and stable across Go releases of the ziggurat tables.

package workload

import (
	"fmt"
	"math"
	"math/rand"

	"affinitycluster/internal/model"
)

// OpenLoopConfig parameterizes the open-loop request process.
type OpenLoopConfig struct {
	// BaseRate is the time-averaged arrival rate, requests per simulated
	// second.
	BaseRate float64
	// DiurnalAmplitude in [0, 1) modulates the instantaneous rate as
	// rate(t) = BaseRate·(1 + A·sin(2πt/Period)): 0 is a homogeneous
	// Poisson process, 0.5 swings between half and 1.5× the base rate.
	DiurnalAmplitude float64
	// DiurnalPeriod is the modulation period in simulated seconds
	// (default 86400, one day).
	DiurnalPeriod float64

	// Types is the VM type count of every request vector.
	Types int
	// SizeShape is the Pareto tail index α of the total VM count
	// (default 2.2 — finite mean, heavy tail). Smaller is heavier.
	SizeShape float64
	// SizeMin and SizeMax truncate the total VM count (defaults 1, 64).
	SizeMin, SizeMax int

	// HoldMedian is the median lifetime in simulated seconds (the
	// lognormal's e^μ, default 300).
	HoldMedian float64
	// HoldSigma is the lognormal's σ (default 1.2 — a long tail of
	// clusters living far past the median). Lifetimes are truncated at
	// holdMaxPeriods diurnal periods.
	HoldSigma float64
}

// holdMaxPeriods truncates lifetimes at this many diurnal periods, so a
// single draw cannot pin VMs for the whole run.
const holdMaxPeriods = 20

// DefaultOpenLoopConfig is the soak scenario's workload: ~0.5 requests/s
// on average with a pronounced day/night swing, mostly-small clusters
// with a heavy tail up to 64 VMs, and lifetimes with a median of five
// minutes but a tail into many hours.
func DefaultOpenLoopConfig() OpenLoopConfig {
	return OpenLoopConfig{
		BaseRate:         0.5,
		DiurnalAmplitude: 0.6,
		DiurnalPeriod:    86400,
		Types:            3,
		SizeShape:        2.2,
		SizeMin:          1,
		SizeMax:          64,
		HoldMedian:       300,
		HoldSigma:        1.2,
	}
}

// withDefaults fills zero-valued optional fields.
func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 86400
	}
	if c.SizeShape == 0 {
		c.SizeShape = 2.2
	}
	if c.SizeMin == 0 {
		c.SizeMin = 1
	}
	if c.SizeMax == 0 {
		c.SizeMax = 64
	}
	if c.HoldMedian == 0 {
		c.HoldMedian = 300
	}
	if c.HoldSigma == 0 {
		c.HoldSigma = 1.2
	}
	return c
}

// validate rejects configurations the generator cannot sample.
func (c OpenLoopConfig) validate() error {
	switch {
	case !(c.BaseRate > 0) || math.IsInf(c.BaseRate, 0):
		return fmt.Errorf("workload: open-loop BaseRate must be positive and finite, got %v", c.BaseRate)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("workload: DiurnalAmplitude must be in [0, 1), got %v", c.DiurnalAmplitude)
	case !(c.DiurnalPeriod > 0):
		return fmt.Errorf("workload: DiurnalPeriod must be positive, got %v", c.DiurnalPeriod)
	case c.Types <= 0:
		return fmt.Errorf("workload: open-loop Types must be positive, got %d", c.Types)
	case !(c.SizeShape > 1):
		return fmt.Errorf("workload: SizeShape must exceed 1 (finite mean), got %v", c.SizeShape)
	case c.SizeMin < 1 || c.SizeMax < c.SizeMin:
		return fmt.Errorf("workload: need 1 ≤ SizeMin ≤ SizeMax, got [%d, %d]", c.SizeMin, c.SizeMax)
	case !(c.HoldMedian > 0) || !(c.HoldSigma >= 0):
		return fmt.Errorf("workload: hold distribution invalid: median %v, sigma %v", c.HoldMedian, c.HoldSigma)
	}
	return nil
}

// MeanVMsPerRequest returns the exact mean cluster size of the sampling
// procedure (floor of a Pareto draw, redrawn past SizeMax) — the sizing
// input for picking a plant that keeps the offered load below capacity.
func (c OpenLoopConfig) MeanVMsPerRequest() float64 {
	c = c.withDefaults()
	// drawSize yields n with probability (F(n+1) − F(n)) / F(SizeMax+1),
	// where F is the Pareto(α, SizeMin) CDF — the redraw renormalizes the
	// tail mass away. SizeMax is small, so sum directly.
	cdf := func(x float64) float64 {
		return 1 - math.Pow(float64(c.SizeMin)/x, c.SizeShape)
	}
	var mean float64
	for n := c.SizeMin; n <= c.SizeMax; n++ {
		mean += float64(n) * (cdf(float64(n+1)) - cdf(float64(n)))
	}
	return mean / cdf(float64(c.SizeMax+1))
}

// MeanHold returns the truncation-ignoring lognormal mean lifetime,
// e^(μ+σ²/2) — an upper bound on the true (truncated) mean, which is the
// safe direction for capacity sizing.
func (c OpenLoopConfig) MeanHold() float64 {
	c = c.withDefaults()
	return c.HoldMedian * math.Exp(c.HoldSigma*c.HoldSigma/2)
}

// OpenLoop streams requests from the configured process. It implements
// model.RequestSource: IDs increase by one per request and arrivals are
// non-decreasing, so it plugs directly into the cloud simulator's
// streaming run or a trace.Writer.
type OpenLoop struct {
	cfg       OpenLoopConfig
	r         *rand.Rand
	clock     float64
	remaining int
	nextID    model.RequestID
}

// NewOpenLoop returns a seeded generator that will emit count requests.
func NewOpenLoop(seed int64, count int, cfg OpenLoopConfig) (*OpenLoop, error) {
	if count <= 0 {
		return nil, fmt.Errorf("workload: NewOpenLoop needs a positive count, got %d", count)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &OpenLoop{cfg: cfg, r: rand.New(rand.NewSource(seed)), remaining: count}, nil
}

// uniform01 draws U(0,1] — never exactly 0, so logs stay finite.
func (g *OpenLoop) uniform01() float64 {
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	return u
}

// rate is the instantaneous arrival rate at virtual time t.
func (g *OpenLoop) rate(t float64) float64 {
	c := g.cfg
	return c.BaseRate * (1 + c.DiurnalAmplitude*math.Sin(2*math.Pi*t/c.DiurnalPeriod))
}

// nextArrival advances the clock to the next arrival of the modulated
// Poisson process by Lewis–Shedler thinning: candidate gaps are drawn at
// the peak rate and accepted with probability rate(t)/peak.
func (g *OpenLoop) nextArrival() {
	peak := g.cfg.BaseRate * (1 + g.cfg.DiurnalAmplitude)
	for {
		g.clock += -math.Log(g.uniform01()) / peak
		if g.r.Float64()*peak <= g.rate(g.clock) {
			return
		}
	}
}

// drawSize samples the truncated Pareto total VM count by inverse
// transform, redrawing the (rare) tail mass beyond SizeMax so the
// truncation does not pile probability onto the cap.
func (g *OpenLoop) drawSize() int {
	c := g.cfg
	for {
		x := float64(c.SizeMin) * math.Pow(g.uniform01(), -1/c.SizeShape)
		if n := int(x); n <= c.SizeMax {
			return n
		}
	}
}

// drawHold samples the truncated lognormal lifetime via Box–Muller.
func (g *OpenLoop) drawHold() float64 {
	c := g.cfg
	for {
		z := math.Sqrt(-2*math.Log(g.uniform01())) * math.Cos(2*math.Pi*g.r.Float64())
		if h := c.HoldMedian * math.Exp(c.HoldSigma*z); h <= holdMaxPeriods*c.DiurnalPeriod {
			return h
		}
	}
}

// Next draws the next request; ok=false once count requests were emitted.
func (g *OpenLoop) Next() (model.TimedRequest, bool, error) {
	if g.remaining <= 0 {
		return model.TimedRequest{}, false, nil
	}
	g.remaining--
	g.nextArrival()
	req := make(model.Request, g.cfg.Types)
	for v, n := 0, g.drawSize(); v < n; v++ {
		req[g.r.Intn(g.cfg.Types)]++
	}
	r := model.TimedRequest{
		ID:      g.nextID,
		Vector:  req,
		Arrival: g.clock,
		Hold:    g.drawHold(),
	}
	g.nextID++
	return r, true, nil
}
