// Package faults generates deterministic, seeded fault schedules for the
// cloud simulator: node crashes, rack outages, and the repairs that undo
// them, all timestamped in eventsim virtual time. The paper's operational
// setting is a live cloud where "requests will arrive and their job will
// finish randomly" (Section V.A) and lists reacting to reconfiguration as
// future work; this package supplies the missing axis — nodes that fail
// and come back — as plain data the simulator replays.
//
// A fault plan is a pure function of (seed, topology, Config): the same
// inputs always produce the same event list, so instrumented fault runs
// keep the repo's same-seed ⇒ byte-identical contract. Overlap is
// resolved at generation time (a node already down when a failure fires
// is excluded from it), which keeps replay trivial: the consumer never
// sees a crash for a node that is not up.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"affinitycluster/internal/topology"
)

// Kind classifies one fault event.
type Kind int

const (
	// NodeCrash fails a single node: its capacity drops to zero and the
	// VMs hosted there are lost.
	NodeCrash Kind = iota
	// RackOutage fails every currently-up node of one rack at once — the
	// correlated failure mode (shared switch or PDU) that rack-aware
	// placement exists to survive.
	RackOutage
	// Repair restores the capacity removed by the crash or outage with
	// the same FailureID.
	Repair
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node_crash"
	case RackOutage:
		return "rack_outage"
	case Repair:
		return "repair"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault: a crash or outage taking Nodes down at
// Time, or the repair bringing them back. Crash and repair share a
// FailureID, so consumers can pair them without extra bookkeeping.
type Event struct {
	Time      float64
	Kind      Kind
	FailureID int
	// Nodes are the affected nodes, ascending. A RackOutage lists only
	// the rack's nodes that were up when it fired.
	Nodes []topology.NodeID
	// Rack is the failed rack for RackOutage events (and their repairs),
	// -1 otherwise.
	Rack int
}

// Config parameterizes the fault process. The zero value disables
// injection entirely.
type Config struct {
	// MTBF is the mean time between failures (exponential inter-failure
	// gaps), in simulation seconds. MTBF <= 0 disables fault injection.
	MTBF float64
	// MTTR is the mean time to repair one failure (exponential), in
	// simulation seconds. Required > 0 when MTBF > 0.
	MTTR float64
	// Horizon bounds the injection window: no failure fires after it
	// (repairs may). Required > 0 when MTBF > 0, so a fault-enabled run
	// always terminates.
	Horizon float64
	// RackEvery promotes every k-th failure to a rack outage of the
	// victim's rack (0 = node crashes only).
	RackEvery int
}

// maxExpectedFailures bounds Horizon/MTBF, the expected number of
// inter-failure gaps Plan draws. Both values reach Plan from outside the
// program (affinitysim's -mtbf flag), and a tiny MTBF would keep Plan
// drawing gaps for hours instead of failing. Every schedule in the repo
// expects fewer than 1,000 draws.
const maxExpectedFailures = 1 << 20

// Enabled reports whether the configuration injects any faults.
func (c Config) Enabled() bool { return c.MTBF > 0 }

// Validate checks an enabled configuration for usable parameters.
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if math.IsNaN(c.MTBF) || math.IsInf(c.MTBF, 0) {
		return errors.New("faults: MTBF must be finite")
	}
	if !(c.MTTR > 0) || math.IsInf(c.MTTR, 0) {
		return fmt.Errorf("faults: MTTR must be positive and finite, got %v", c.MTTR)
	}
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("faults: Horizon must be positive and finite, got %v", c.Horizon)
	}
	if c.Horizon/c.MTBF > maxExpectedFailures {
		return fmt.Errorf("faults: Horizon/MTBF = %v/%v expects more than %d failures", c.Horizon, c.MTBF, maxExpectedFailures)
	}
	if c.RackEvery < 0 {
		return fmt.Errorf("faults: negative RackEvery %d", c.RackEvery)
	}
	return nil
}

// Plan generates the fault schedule for a topology: crash/outage events
// with their paired repairs, sorted by time (generation order breaks
// ties). Determinism is structural — one seeded generator, drawn in a
// fixed order — so equal inputs yield equal plans.
func Plan(seed int64, tp *topology.Topology, cfg Config) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if tp == nil || tp.Nodes() == 0 {
		return nil, errors.New("faults: nil or empty topology")
	}
	rng := rand.New(rand.NewSource(seed))
	downUntil := make([]float64, tp.Nodes())
	var events []Event
	t := 0.0
	failures := 0
	for draws := 0; ; draws++ {
		t += exponential(rng, cfg.MTBF)
		if t > cfg.Horizon {
			break
		}
		victim := topology.NodeID(rng.Intn(tp.Nodes()))
		kind := NodeCrash
		rack := -1
		candidates := []topology.NodeID{victim}
		if cfg.RackEvery > 0 && (draws+1)%cfg.RackEvery == 0 {
			kind = RackOutage
			rack = tp.RackOf(victim)
			candidates = tp.RackNodes(rack)
		}
		repairAt := t + exponential(rng, cfg.MTTR)
		var nodes []topology.NodeID
		for _, n := range candidates {
			if downUntil[n] <= t {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) == 0 {
			// Every candidate is already down; the failure is absorbed by
			// the outage in progress. The rng draws above still happened,
			// so the rest of the schedule is unaffected by this skip.
			continue
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, n := range nodes {
			downUntil[n] = repairAt
		}
		events = append(events,
			Event{Time: t, Kind: kind, FailureID: failures, Nodes: nodes, Rack: rack},
			Event{Time: repairAt, Kind: Repair, FailureID: failures, Nodes: nodes, Rack: rack})
		failures++
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events, nil
}

// exponential draws from Exp(mean) by inverse transform, mirroring
// package workload: explicit rather than rand.ExpFloat64 so seed usage
// is stable across Go releases of the ziggurat tables.
func exponential(r *rand.Rand, mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
