// Package topology models the physical plant of an IaaS cloud: clouds
// containing racks containing nodes, and the node-to-node distance matrix D
// of the paper's Section II.
//
// Distance is an abstraction of network latency. Following the paper, the
// distance between two VMs on the same node is 0, between nodes in the same
// rack is d1, between nodes in different racks is d2, and between nodes in
// different clouds is d3, with 0 < d1 < d2 < d3.
package topology

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// NodeID indexes a physical node within a Topology. IDs are dense in
// [0, Nodes()).
type NodeID int

// Distances holds the tiered distance constants of the paper.
type Distances struct {
	// SameNode is the distance between two VMs hosted on the same node.
	// The paper fixes it to 0.
	SameNode float64
	// SameRack (d1) separates nodes in the same rack.
	SameRack float64
	// CrossRack (d2) separates nodes in different racks of one cloud.
	CrossRack float64
	// CrossCloud (d3) separates nodes in different clouds.
	CrossCloud float64
}

// DefaultDistances returns the distance configuration used by the paper's
// experimental evaluation (Section V.B): 0 within a node, 1 within a rack,
// 2 across racks. CrossCloud extends the hierarchy one more tier.
func DefaultDistances() Distances {
	return Distances{SameNode: 0, SameRack: 1, CrossRack: 2, CrossCloud: 4}
}

// Validate checks the strict ordering 0 <= SameNode < SameRack < CrossRack
// < CrossCloud required by the paper's model (0 < d1 < d2 < d3).
func (d Distances) Validate() error {
	if d.SameNode < 0 {
		return errors.New("topology: SameNode distance is negative")
	}
	if !(d.SameNode < d.SameRack && d.SameRack < d.CrossRack && d.CrossRack < d.CrossCloud) {
		return fmt.Errorf("topology: distances must satisfy SameNode < SameRack < CrossRack < CrossCloud, got %+v", d)
	}
	return nil
}

// Node is one physical server.
type Node struct {
	ID    NodeID
	Name  string
	Rack  int // dense rack index within the topology
	Cloud int // dense cloud index within the topology
}

// Topology is an immutable description of the physical plant. Build one
// with a Builder or a generator from package workload, then share it freely:
// all methods are safe for concurrent use.
type Topology struct {
	nodes     []Node
	dist      Distances
	rackOf    []int
	cloudOf   []int
	racks     int
	clouds    int
	rackNodes [][]NodeID // nodes grouped by rack, ascending IDs
	rackCloud []int      // cloud index per rack (-1 for an empty rack)
	// cloudRacks groups the non-empty racks of each cloud, ascending rack
	// index; racksByLowID orders all non-empty racks by their lowest node
	// ID. Both are derived once at construction for the tier-aggregated
	// center scan, which walks clouds then racks instead of nodes.
	cloudRacks [][]int
	racksByLow []int
	// lowRunEnd[p] is the position in racksByLow one past the maximal run
	// of same-cloud racks holding position p, so the scan can step over a
	// whole cloud's stretch of its walk at once.
	lowRunEnd []int
}

// Builder accumulates racks and nodes, then produces a Topology.
type Builder struct {
	dist   Distances
	nodes  []Node
	racks  int
	clouds int
	err    error
}

// NewBuilder starts a topology with the given distance tiers.
func NewBuilder(d Distances) *Builder {
	b := &Builder{dist: d, clouds: 0}
	if err := d.Validate(); err != nil {
		b.err = err
	}
	return b
}

// AddCloud begins a new cloud and returns its index. Racks added afterwards
// belong to it.
func (b *Builder) AddCloud() int {
	b.clouds++
	return b.clouds - 1
}

// AddRack begins a new rack in the most recently added cloud (a cloud is
// implicitly created if none exists) and returns its index.
func (b *Builder) AddRack() int {
	if b.clouds == 0 {
		b.clouds = 1
	}
	b.racks++
	return b.racks - 1
}

// AddNode appends a node to the most recently added rack and returns its ID.
func (b *Builder) AddNode(name string) NodeID {
	if b.racks == 0 {
		b.AddRack()
	}
	id := NodeID(len(b.nodes))
	if name == "" {
		var buf [24]byte
		name = string(strconv.AppendInt(append(buf[:0], "node-"...), int64(id), 10))
	}
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Rack: b.racks - 1, Cloud: b.clouds - 1})
	return id
}

// AddNodes appends count nodes to the current rack.
func (b *Builder) AddNodes(count int) {
	for i := 0; i < count; i++ {
		b.AddNode("")
	}
}

// Build finalizes the topology. It returns an error for an empty plant or
// invalid distances.
func (b *Builder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.nodes) == 0 {
		return nil, errors.New("topology: no nodes")
	}
	t := &Topology{
		nodes:     append([]Node(nil), b.nodes...),
		dist:      b.dist,
		racks:     b.racks,
		clouds:    b.clouds,
		rackOf:    make([]int, len(b.nodes)),
		cloudOf:   make([]int, len(b.nodes)),
		rackNodes: make([][]NodeID, b.racks),
	}
	// Carve every rack's node list from one array, sized by a counting
	// pass, so the appends below never grow a slice.
	perRack := make([]int, b.racks)
	for _, n := range b.nodes {
		perRack[n.Rack]++
	}
	ids := make([]NodeID, len(b.nodes))
	for r, k := range perRack {
		t.rackNodes[r], ids = ids[:0:k], ids[k:]
	}
	for i, n := range t.nodes {
		t.rackOf[i] = n.Rack
		t.cloudOf[i] = n.Cloud
		t.rackNodes[n.Rack] = append(t.rackNodes[n.Rack], n.ID)
	}
	t.buildRackCloud()
	return t, nil
}

// buildRackCloud derives the rack→cloud map from the first node of each
// rack. A rack that holds no nodes maps to -1; no placement aggregate ever
// consults it.
func (t *Topology) buildRackCloud() {
	t.rackCloud = make([]int, t.racks)
	for r := range t.rackCloud {
		if len(t.rackNodes[r]) == 0 {
			t.rackCloud[r] = -1
			continue
		}
		t.rackCloud[r] = t.cloudOf[t.rackNodes[r][0]]
	}
	t.cloudRacks = make([][]int, t.clouds)
	t.racksByLow = t.racksByLow[:0]
	for r, c := range t.rackCloud {
		if c < 0 {
			continue
		}
		t.cloudRacks[c] = append(t.cloudRacks[c], r)
		t.racksByLow = append(t.racksByLow, r)
	}
	sort.Slice(t.racksByLow, func(a, b int) bool {
		return t.rackNodes[t.racksByLow[a]][0] < t.rackNodes[t.racksByLow[b]][0]
	})
	order := t.racksByLow
	t.lowRunEnd = make([]int, len(order))
	for p := len(order) - 1; p >= 0; p-- {
		if p+1 < len(order) && t.rackCloud[order[p+1]] == t.rackCloud[order[p]] {
			t.lowRunEnd[p] = t.lowRunEnd[p+1]
		} else {
			t.lowRunEnd[p] = p + 1
		}
	}
}

// maxUniformNodes bounds the plants Uniform builds. Plant sizes reach
// Uniform from outside the program (vcplace reads them from JSON), and a
// topology costs about 80 bytes per node before any capacity matrix or
// tier index is built over it, so a mistyped size would exhaust memory
// instead of failing, and a node count that overflows int would panic.
// The largest plants the benchmarks build have 1M nodes (100×100×100);
// the bound leaves four times that.
const maxUniformNodes = 1 << 22

// Uniform builds the symmetric topology used throughout the paper's
// simulations: clouds × racksPerCloud racks, each rack holding nodesPerRack
// nodes.
func Uniform(clouds, racksPerCloud, nodesPerRack int, d Distances) (*Topology, error) {
	if clouds <= 0 || racksPerCloud <= 0 || nodesPerRack <= 0 {
		return nil, fmt.Errorf("topology: Uniform(%d, %d, %d) needs positive arguments", clouds, racksPerCloud, nodesPerRack)
	}
	// Divide rather than multiply, so the check itself cannot overflow.
	if racksPerCloud > maxUniformNodes/clouds || nodesPerRack > maxUniformNodes/(clouds*racksPerCloud) {
		return nil, fmt.Errorf("topology: Uniform(%d, %d, %d) has more than %d nodes", clouds, racksPerCloud, nodesPerRack, maxUniformNodes)
	}
	b := NewBuilder(d)
	b.nodes = make([]Node, 0, clouds*racksPerCloud*nodesPerRack)
	for c := 0; c < clouds; c++ {
		b.AddCloud()
		for r := 0; r < racksPerCloud; r++ {
			b.AddRack()
			b.AddNodes(nodesPerRack)
		}
	}
	return b.Build()
}

// PaperSimPlant builds the exact plant of the paper's simulation section:
// one cloud, 3 racks, 10 nodes per rack.
func PaperSimPlant() *Topology {
	t, err := Uniform(1, 3, 10, DefaultDistances())
	if err != nil {
		panic("topology: PaperSimPlant construction failed: " + err.Error())
	}
	return t
}

// Nodes returns the number of physical nodes (the paper's n).
func (t *Topology) Nodes() int { return len(t.nodes) }

// Racks returns the number of racks.
func (t *Topology) Racks() int { return t.racks }

// Clouds returns the number of clouds.
func (t *Topology) Clouds() int { return t.clouds }

// RackOf returns the rack index of node id.
func (t *Topology) RackOf(id NodeID) int { return t.rackOf[id] }

// CloudOf returns the cloud index of node id.
func (t *Topology) CloudOf(id NodeID) int { return t.cloudOf[id] }

// SameRack reports whether two nodes share a rack.
func (t *Topology) SameRack(a, b NodeID) bool { return t.rackOf[a] == t.rackOf[b] }

// RackNodes returns the IDs of the nodes in rack r in ascending order (so
// RackNodes(r)[0] is the lowest node ID of the rack). The returned slice
// must not be modified.
//
//lint:shared documented read-only view; the topology is immutable after construction
func (t *Topology) RackNodes(r int) []NodeID { return t.rackNodes[r] }

// CloudOfRack returns the cloud index of rack r, or -1 for a rack without
// nodes. It is the rack-level companion of CloudOf, used by the tier
// aggregation layer to price Definition 1 from per-rack totals.
func (t *Topology) CloudOfRack(r int) int { return t.rackCloud[r] }

// CloudRacks returns the non-empty racks of cloud c in ascending rack
// index. The returned slice must not be modified.
//
//lint:shared documented read-only view; the topology is immutable after construction
func (t *Topology) CloudRacks(c int) []int { return t.cloudRacks[c] }

// RacksByLowestNode returns every non-empty rack ordered by its lowest
// node ID — the sweep order of the center scan's lowest-ID tie-break
// reconstruction. The returned slice must not be modified.
//
//lint:shared documented read-only view; the topology is immutable after construction
func (t *Topology) RacksByLowestNode() []int { return t.racksByLow }

// CloudRunEnd returns the position in RacksByLowestNode one past the
// maximal run of consecutive same-cloud racks that holds position p.
// Builder and Uniform plants have one run per cloud; an imported plant
// whose clouds interleave in lowest-node order has several.
func (t *Topology) CloudRunEnd(p int) int { return t.lowRunEnd[p] }

// Distances returns the tier constants of the topology.
func (t *Topology) Distances() Distances { return t.dist }

// Distance returns D[a][b], the distance between two nodes. It is symmetric
// and Distance(a, a) equals the SameNode tier (0 in the paper).
func (t *Topology) Distance(a, b NodeID) float64 {
	switch {
	case a == b:
		return t.dist.SameNode
	case t.cloudOf[a] != t.cloudOf[b]:
		return t.dist.CrossCloud
	case t.rackOf[a] != t.rackOf[b]:
		return t.dist.CrossRack
	default:
		return t.dist.SameRack
	}
}

// topologyJSON is the serialized form of a Topology.
type topologyJSON struct {
	Distances Distances `json:"distances"`
	Nodes     []Node    `json:"nodes"`
	Racks     int       `json:"racks"`
	Clouds    int       `json:"clouds"`
}

// MarshalJSON implements json.Marshaler.
func (t *Topology) MarshalJSON() ([]byte, error) {
	return json.Marshal(topologyJSON{
		Distances: t.dist,
		Nodes:     t.nodes,
		Racks:     t.racks,
		Clouds:    t.clouds,
	})
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded plant.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var raw topologyJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("topology: decode: %w", err)
	}
	if err := raw.Distances.Validate(); err != nil {
		return err
	}
	if len(raw.Nodes) == 0 {
		return errors.New("topology: decoded plant has no nodes")
	}
	// Bound the declared tier counts before they size any allocation: a
	// hostile or corrupt document could otherwise drive make() with a
	// negative or multi-gigabyte length (found by FuzzTopologyImportJSON).
	// Imported plants are dense — every rack and cloud holds at least one
	// node — so node count bounds both.
	if raw.Racks <= 0 || raw.Racks > len(raw.Nodes) {
		return fmt.Errorf("topology: rack count %d out of range [1,%d]", raw.Racks, len(raw.Nodes))
	}
	if raw.Clouds <= 0 || raw.Clouds > raw.Racks {
		return fmt.Errorf("topology: cloud count %d out of range [1,%d]", raw.Clouds, raw.Racks)
	}
	built := &Topology{
		nodes:     raw.Nodes,
		dist:      raw.Distances,
		racks:     raw.Racks,
		clouds:    raw.Clouds,
		rackOf:    make([]int, len(raw.Nodes)),
		cloudOf:   make([]int, len(raw.Nodes)),
		rackNodes: make([][]NodeID, raw.Racks),
	}
	for i, n := range raw.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("topology: node %d has non-dense ID %d", i, n.ID)
		}
		if n.Rack < 0 || n.Rack >= raw.Racks {
			return fmt.Errorf("topology: node %d rack %d out of range [0,%d)", i, n.Rack, raw.Racks)
		}
		if n.Cloud < 0 || n.Cloud >= raw.Clouds {
			return fmt.Errorf("topology: node %d cloud %d out of range [0,%d)", i, n.Cloud, raw.Clouds)
		}
		built.rackOf[i] = n.Rack
		built.cloudOf[i] = n.Cloud
		built.rackNodes[n.Rack] = append(built.rackNodes[n.Rack], n.ID)
	}
	built.buildRackCloud()
	// The tier hierarchy requires every rack to live inside one cloud;
	// the aggregate fast paths price Definition 1 from that containment.
	for i, n := range raw.Nodes {
		if built.rackCloud[n.Rack] != n.Cloud {
			return fmt.Errorf("topology: node %d places rack %d in cloud %d, rack already in cloud %d",
				i, n.Rack, n.Cloud, built.rackCloud[n.Rack])
		}
	}
	*t = *built
	return nil
}
