// Package netmodel provides the network substrate for the MapReduce
// experiment simulator: a flow-level model of a hierarchical datacenter
// network (node access links, rack uplinks, a non-blocking core) with
// max-min fair bandwidth sharing among concurrent flows.
//
// The paper's experiments run Hadoop on physical clusters whose network
// latency hierarchy is exactly what the distance tiers abstract. This
// model reproduces the behaviour the experiments measure: transfers
// between VMs on one node are (nearly) free, intra-rack transfers ride the
// access links, and cross-rack transfers additionally contend on
// oversubscribed rack uplinks — which is why the shuffle phase dominates
// for low-affinity clusters.
//
// FlowSim is event-driven: starting or finishing a flow triggers a global
// max-min re-fair-share (progressive filling) and the completion events
// are rescheduled accordingly. The model is exact for max-min sharing,
// piecewise-constant between flow arrivals/departures.
package netmodel

import (
	"fmt"
	"math"
	"sort"

	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/topology"
)

// Config fixes link capacities and per-tier latencies. Capacities are in
// MB/s, latencies in seconds.
type Config struct {
	// LocalMBps bounds transfers between two VMs on the same node
	// (memory/disk copy, no network).
	LocalMBps float64
	// AccessMBps is each node's NIC / access-link capacity.
	AccessMBps float64
	// RackUplinkMBps is the ToR-to-core uplink shared by a whole rack;
	// values below nodesPerRack × AccessMBps model oversubscription.
	RackUplinkMBps float64
	// CloudUplinkMBps bounds traffic leaving one cloud.
	CloudUplinkMBps float64
	// LatencySameRack / LatencyCrossRack / LatencyCrossCloud are one-way
	// propagation+protocol latencies added to every transfer.
	LatencySameRack   float64
	LatencyCrossRack  float64
	LatencyCrossCloud float64
}

// DefaultConfig models a 2012-era cluster: GbE access (120 MB/s), 4:1
// oversubscribed rack uplinks, fast local copies.
func DefaultConfig() Config {
	return Config{
		LocalMBps:         400,
		AccessMBps:        120,
		RackUplinkMBps:    300,
		CloudUplinkMBps:   150,
		LatencySameRack:   0.0005,
		LatencyCrossRack:  0.002,
		LatencyCrossCloud: 0.05,
	}
}

// Validate rejects non-positive capacities and negative latencies.
func (c Config) Validate() error {
	if c.LocalMBps <= 0 || c.AccessMBps <= 0 || c.RackUplinkMBps <= 0 || c.CloudUplinkMBps <= 0 {
		return fmt.Errorf("netmodel: capacities must be positive: %+v", c)
	}
	if c.LatencySameRack < 0 || c.LatencyCrossRack < 0 || c.LatencyCrossCloud < 0 {
		return fmt.Errorf("netmodel: latencies must be non-negative: %+v", c)
	}
	return nil
}

// linkID identifies one capacity-constrained resource.
type linkID struct {
	kind int // 0 = node access, 1 = rack uplink, 2 = cloud uplink, 3 = node local
	id   int
}

const (
	kindAccess = iota
	kindRackUp
	kindCloudUp
	kindLocal
)

// Flow is one in-flight transfer.
type Flow struct {
	ID        int
	Src, Dst  topology.NodeID
	remaining float64 // MB
	rate      float64 // MB/s, current fair share
	links     []linkID
	done      func(now float64)
	event     *eventsim.Event
	started   float64
	lastTouch float64
}

// FlowSim simulates concurrent flows over the hierarchical network.
type FlowSim struct {
	engine *eventsim.Engine
	topo   *topology.Topology
	cfg    Config
	flows  map[int]*Flow
	nextID int
}

// NewFlowSim binds a simulator to an engine and a topology.
func NewFlowSim(e *eventsim.Engine, t *topology.Topology, cfg Config) (*FlowSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FlowSim{engine: e, topo: t, cfg: cfg, flows: make(map[int]*Flow)}, nil
}

// latency returns the one-way latency for a src→dst transfer.
func (fs *FlowSim) latency(src, dst topology.NodeID) float64 {
	switch {
	case src == dst:
		return 0
	case fs.topo.CloudOf(src) != fs.topo.CloudOf(dst):
		return fs.cfg.LatencyCrossCloud
	case fs.topo.RackOf(src) != fs.topo.RackOf(dst):
		return fs.cfg.LatencyCrossRack
	default:
		return fs.cfg.LatencySameRack
	}
}

// path enumerates the capacity constraints a flow traverses.
func (fs *FlowSim) path(src, dst topology.NodeID) []linkID {
	if src == dst {
		return []linkID{{kindLocal, int(src)}}
	}
	links := []linkID{{kindAccess, int(src)}, {kindAccess, int(dst)}}
	if fs.topo.RackOf(src) != fs.topo.RackOf(dst) {
		links = append(links, linkID{kindRackUp, fs.topo.RackOf(src)}, linkID{kindRackUp, fs.topo.RackOf(dst)})
	}
	if fs.topo.CloudOf(src) != fs.topo.CloudOf(dst) {
		links = append(links, linkID{kindCloudUp, fs.topo.CloudOf(src)}, linkID{kindCloudUp, fs.topo.CloudOf(dst)})
	}
	return links
}

// capacity returns a link's capacity in MB/s.
func (fs *FlowSim) capacity(l linkID) float64 {
	switch l.kind {
	case kindLocal:
		return fs.cfg.LocalMBps
	case kindAccess:
		return fs.cfg.AccessMBps
	case kindRackUp:
		return fs.cfg.RackUplinkMBps
	default:
		return fs.cfg.CloudUplinkMBps
	}
}

// StartFlow launches a transfer of sizeMB from src to dst; done fires on
// the engine when the last byte lands. Zero-size transfers complete after
// the path latency alone.
func (fs *FlowSim) StartFlow(src, dst topology.NodeID, sizeMB float64, done func(now float64)) (*Flow, error) {
	if sizeMB < 0 {
		return nil, fmt.Errorf("netmodel: negative flow size %v", sizeMB)
	}
	lat := fs.latency(src, dst)
	if sizeMB == 0 {
		_, err := fs.engine.After(lat, done)
		return nil, err
	}
	f := &Flow{
		ID:        fs.nextID,
		Src:       src,
		Dst:       dst,
		remaining: sizeMB,
		links:     fs.path(src, dst),
		done:      done,
		started:   fs.engine.Now(),
		lastTouch: fs.engine.Now() + lat,
	}
	fs.nextID++
	// The flow's bytes begin moving after the path latency; model the
	// latency by delaying activation.
	if lat > 0 {
		_, err := fs.engine.After(lat, func(float64) { fs.activate(f) })
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	fs.activate(f)
	return f, nil
}

func (fs *FlowSim) activate(f *Flow) {
	f.lastTouch = fs.engine.Now()
	fs.flows[f.ID] = f
	fs.reshare()
}

// progress advances every active flow's remaining bytes to the current
// instant under its last rate assignment.
func (fs *FlowSim) progress() {
	now := fs.engine.Now()
	for _, f := range fs.flows {
		dt := now - f.lastTouch
		if dt > 0 {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
			f.lastTouch = now
		}
	}
}

// reshare recomputes max-min fair rates (progressive filling) and
// reschedules completion events. Called after any flow set change. All
// iteration is over explicitly sorted slices: with ties in the fair-share
// computation, map iteration order would otherwise leak nondeterminism
// into completion times and break reproducible simulations.
func (fs *FlowSim) reshare() {
	fs.progress()
	// Deterministic flow order.
	flowIDs := make([]int, 0, len(fs.flows))
	for id := range fs.flows {
		flowIDs = append(flowIDs, id)
	}
	sort.Ints(flowIDs)
	// Progressive filling.
	type linkState struct {
		id    linkID
		cap   float64
		flows []*Flow
	}
	links := make(map[linkID]*linkState)
	var linkOrder []*linkState
	for _, id := range flowIDs {
		f := fs.flows[id]
		f.rate = -1 // unfrozen
		for _, l := range f.links {
			st := links[l]
			if st == nil {
				st = &linkState{id: l, cap: fs.capacity(l)}
				links[l] = st
				linkOrder = append(linkOrder, st)
			}
			st.flows = append(st.flows, f)
		}
	}
	sort.Slice(linkOrder, func(a, b int) bool {
		if linkOrder[a].id.kind != linkOrder[b].id.kind {
			return linkOrder[a].id.kind < linkOrder[b].id.kind
		}
		return linkOrder[a].id.id < linkOrder[b].id.id
	})
	unfrozen := len(fs.flows)
	for unfrozen > 0 {
		// Find the bottleneck: the link with the smallest fair share among
		// its unfrozen flows. Ties resolve to the first link in the fixed
		// (kind, id) order.
		var bottleneck *linkState
		share := math.Inf(1)
		for _, st := range linkOrder {
			n := 0
			for _, f := range st.flows {
				if f.rate < 0 {
					n++
				}
			}
			if n == 0 {
				continue
			}
			if s := st.cap / float64(n); s < share {
				share = s
				bottleneck = st
			}
		}
		if bottleneck == nil {
			break // all remaining flows unconstrained (cannot happen: every flow has links)
		}
		// Freeze that link's unfrozen flows at the fair share and charge
		// their rate to every other link they cross.
		for _, f := range bottleneck.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = share
			unfrozen--
			for _, l := range f.links {
				if st := links[l]; st != bottleneck {
					st.cap -= share
					if st.cap < 0 {
						st.cap = 0
					}
				}
			}
		}
		bottleneck.cap = 0
	}
	// Reschedule completions in flow-ID order so equal ETAs enqueue
	// deterministically.
	now := fs.engine.Now()
	for _, id := range flowIDs {
		f := fs.flows[id]
		if f.event != nil {
			fs.engine.Cancel(f.event)
			f.event = nil
		}
		if f.rate <= 0 {
			continue // starved; will be rescheduled on the next reshare
		}
		eta := f.remaining / f.rate
		flow := f
		ev, err := fs.engine.At(now+eta, func(nowAt float64) { fs.finish(flow, nowAt) })
		if err == nil {
			f.event = ev
		}
	}
}

func (fs *FlowSim) finish(f *Flow, now float64) {
	f.remaining = 0
	f.event = nil
	delete(fs.flows, f.ID)
	done := f.done
	fs.reshare()
	if done != nil {
		done(now)
	}
}
