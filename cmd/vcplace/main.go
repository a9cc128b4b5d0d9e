// Command vcplace computes an affinity-aware placement for one request
// from a JSON problem description and prints the allocation, its distance,
// and its central node. The online strategy (Algorithm 1) returns the
// shortest-distance optimum.
//
// Usage:
//
//	vcplace -in problem.json [-strategy online|firstfit|roundrobin|pack]
//
// Input format:
//
//	{
//	  "clouds": 1, "racksPerCloud": 3, "nodesPerRack": 10,
//	  "capacities": [[2,1,0], ...],       // nodes × types (L)
//	  "request": [2, 4, 1]
//	}
//
// An omitted "capacities" gives every node one instance of each type.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/topology"
)

type problem struct {
	Clouds        int           `json:"clouds"`
	RacksPerCloud int           `json:"racksPerCloud"`
	NodesPerRack  int           `json:"nodesPerRack"`
	Capacities    [][]int       `json:"capacities"`
	Request       model.Request `json:"request"`
}

func main() {
	in := flag.String("in", "", "path to the JSON problem (default: stdin)")
	strategy := flag.String("strategy", "online", "placement strategy: online, firstfit, roundrobin, pack")
	flag.Parse()

	if err := run(os.Stdout, *in, *strategy); err != nil {
		fmt.Fprintln(os.Stderr, "vcplace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, in, strategy string) error {
	var data []byte
	var err error
	if in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	var p problem
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("parsing problem: %w", err)
	}
	if p.Clouds == 0 {
		p.Clouds = 1
	}
	topo, err := topology.Uniform(p.Clouds, p.RacksPerCloud, p.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		return err
	}
	if p.Capacities == nil {
		p.Capacities = make([][]int, topo.Nodes())
		for i := range p.Capacities {
			p.Capacities[i] = make([]int, len(p.Request))
			for j := range p.Capacities[i] {
				p.Capacities[i][j] = 1
			}
		}
	}
	if len(p.Capacities) != topo.Nodes() {
		return fmt.Errorf("capacities has %d rows, plant has %d nodes", len(p.Capacities), topo.Nodes())
	}

	var placer placement.Placer
	switch strategy {
	case "online":
		placer = &placement.OnlineHeuristic{}
	case "firstfit":
		placer = placement.FirstFit{}
	case "roundrobin":
		placer = placement.RoundRobinStripe{}
	case "pack":
		placer = placement.PackBestFit{}
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	alloc, err := placer.Place(topo, p.Capacities, p.Request)
	if err != nil {
		return err
	}
	d, ctr := alloc.Distance(topo)
	fmt.Fprintf(w, "%s: distance %.1f, central node %d\n", strategy, d, ctr)
	for _, node := range alloc.HostingNodes() {
		fmt.Fprintf(w, "  node %2d (rack %d): %v\n", node, topo.RackOf(node), alloc[node])
	}
	return nil
}
