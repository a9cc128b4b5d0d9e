// Package workload generates the randomized inputs of the paper's
// simulations (Section V.A): per-node VM capacities distributed randomly,
// and sequences of random virtual cluster requests. Two request scenarios
// are modelled after the paper's Figs. 5 and 6: Normal (the configuration
// of the earlier figures) and Small ("a request sequence with a relatively
// small number of VMs"). All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"affinitycluster/internal/model"
)

// Scenario selects the request-size regime of the paper's two simulated
// request sequences.
type Scenario int

const (
	// Normal is the configuration of Figs. 2–5: requests of up to ~10 VMs
	// across the three types.
	Normal Scenario = iota
	// Small is the Fig. 6 sequence: requests of only a few VMs, where the
	// global optimization has the most room (the paper reports a 12%
	// improvement versus 2% for Normal).
	Small
)

func (s Scenario) String() string {
	switch s {
	case Normal:
		return "normal"
	case Small:
		return "small"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// InventoryConfig parameterizes random capacity generation.
type InventoryConfig struct {
	// MaxPerType caps each node's capacity for each VM type; capacities
	// are uniform in [0, MaxPerType].
	MaxPerType int
}

// DefaultInventoryConfig matches the scale of the paper's simulated cloud
// (each node offers a handful of instances of each type).
func DefaultInventoryConfig() InventoryConfig { return InventoryConfig{MaxPerType: 4} }

// RandomCapacities draws a nodes×types capacity matrix M.
func RandomCapacities(seed int64, nodes, types int, cfg InventoryConfig) ([][]int, error) {
	if nodes <= 0 || types <= 0 {
		return nil, fmt.Errorf("workload: RandomCapacities(%d, %d) needs positive dimensions", nodes, types)
	}
	if cfg.MaxPerType < 0 {
		return nil, fmt.Errorf("workload: negative MaxPerType %d", cfg.MaxPerType)
	}
	r := rand.New(rand.NewSource(seed))
	m := make([][]int, nodes)
	for i := range m {
		m[i] = make([]int, types)
		for j := range m[i] {
			m[i][j] = r.Intn(cfg.MaxPerType + 1)
		}
	}
	return m, nil
}

// RequestConfig bounds the random request generator.
type RequestConfig struct {
	// MaxPerType caps the per-type count of a Normal request.
	MaxPerType int
	// SmallMaxTotal caps the total VM count of a Small request.
	SmallMaxTotal int
}

// DefaultRequestConfig reproduces the paper's two scenarios at its scale.
func DefaultRequestConfig() RequestConfig {
	return RequestConfig{MaxPerType: 4, SmallMaxTotal: 3}
}

// RandomRequests draws count random non-empty requests over the given
// number of types. The selected scenario's bound must allow one VM:
// SmallMaxTotal for Small, MaxPerType for Normal.
func RandomRequests(seed int64, count, types int, sc Scenario, cfg RequestConfig) ([]model.Request, error) {
	if count <= 0 || types <= 0 {
		return nil, fmt.Errorf("workload: RandomRequests(%d, %d) needs positive arguments", count, types)
	}
	if sc == Small && cfg.SmallMaxTotal < 1 {
		return nil, fmt.Errorf("workload: Small requests need SmallMaxTotal ≥ 1, got %d", cfg.SmallMaxTotal)
	}
	if sc != Small && cfg.MaxPerType < 1 {
		return nil, fmt.Errorf("workload: %v requests need MaxPerType ≥ 1, got %d", sc, cfg.MaxPerType)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Request, count)
	for q := range out {
		req := make(model.Request, types)
		switch sc {
		case Small:
			total := 1 + r.Intn(cfg.SmallMaxTotal)
			for v := 0; v < total; v++ {
				req[r.Intn(types)]++
			}
		default:
			for j := range req {
				req[j] = r.Intn(cfg.MaxPerType + 1)
			}
			if req.IsZero() {
				req[r.Intn(types)] = 1 + r.Intn(cfg.MaxPerType)
			}
		}
		out[q] = req
	}
	return out, nil
}

// ArrivalConfig parameterizes the request arrival/holding process of the
// cloud simulator ("requests will arrive and their job will finish
// randomly").
type ArrivalConfig struct {
	// MeanInterarrival is the mean of the exponential inter-arrival gap.
	MeanInterarrival float64
	// MeanHold is the mean exponential service duration.
	MeanHold float64
}

// DefaultArrivalConfig sizes arrivals so the paper's 20-request run keeps
// several clusters concurrently resident.
func DefaultArrivalConfig() ArrivalConfig {
	return ArrivalConfig{MeanInterarrival: 30, MeanHold: 300}
}

// TimedRequests attaches Poisson arrivals and exponential holds to a
// request sequence.
func TimedRequests(seed int64, reqs []model.Request, cfg ArrivalConfig) ([]model.TimedRequest, error) {
	for _, x := range []float64{cfg.MeanInterarrival, cfg.MeanHold} {
		if !(x > 0) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("workload: arrival means must be positive and finite: %+v", cfg)
		}
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]model.TimedRequest, len(reqs))
	clock := 0.0
	for i, req := range reqs {
		clock += exponential(r, cfg.MeanInterarrival)
		out[i] = model.TimedRequest{
			ID:      model.RequestID(i),
			Vector:  req.Clone(),
			Arrival: clock,
			Hold:    exponential(r, cfg.MeanHold),
		}
	}
	return out, nil
}

// exponential draws from Exp(mean) using inverse transform sampling, kept
// explicit (rather than rand.ExpFloat64) so the distribution is evident
// and the seed usage is stable across Go releases of ExpFloat64's
// ziggurat tables.
func exponential(r *rand.Rand, mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// PaperSimulation bundles the full Section V.A setup: the 3-rack × 10-node
// plant capacities and the 20 random requests.
type PaperSimulation struct {
	Capacities [][]int
	Requests   []model.Request
}

// NewPaperSimulation draws a seeded instance of the paper's simulation
// configuration with the given scenario. The Small scenario pairs its
// few-VM requests with fine-grained node capacities (at most one instance
// of each type per node), so that even small clusters must span nodes —
// the regime where the paper reports the global algorithm's largest gains.
func NewPaperSimulation(seed int64, sc Scenario) (*PaperSimulation, error) {
	const (
		nodes    = 30 // 3 racks × 10 nodes
		types    = 3  // Table I
		requests = 20
	)
	invCfg := DefaultInventoryConfig()
	if sc == Small {
		invCfg.MaxPerType = 1
	}
	caps, err := RandomCapacities(seed, nodes, types, invCfg)
	if err != nil {
		return nil, err
	}
	reqs, err := RandomRequests(seed+1, requests, types, sc, DefaultRequestConfig())
	if err != nil {
		return nil, err
	}
	return &PaperSimulation{Capacities: caps, Requests: reqs}, nil
}
