// Package topotest is test support for code that runs on plants: it
// builds the plant shapes only a JSON import admits.
package topotest

import (
	"encoding/json"
	"math/rand"
	"testing"

	"affinitycluster/internal/topology"
)

// Scramble re-imports tp through JSON with its node IDs and rack indices
// permuted at random. A rack's node IDs are then no longer consecutive,
// racks of one cloud are no longer adjacent indices, and clouds
// interleave in node-ID order: plant shapes only Topology.UnmarshalJSON
// admits. It draws the node permutation from rng, then the rack one.
func Scramble(t testing.TB, rng *rand.Rand, tp *topology.Topology) *topology.Topology {
	t.Helper()
	nodePerm, rackPerm := rng.Perm(tp.Nodes()), rng.Perm(tp.Racks())
	nodes := make([]topology.Node, tp.Nodes())
	for i, id := range nodePerm {
		old := topology.NodeID(i)
		nodes[id] = topology.Node{ID: topology.NodeID(id), Rack: rackPerm[tp.RackOf(old)], Cloud: tp.CloudOf(old)}
	}
	data, err := json.Marshal(map[string]any{
		"distances": tp.Distances(), "nodes": nodes, "racks": tp.Racks(), "clouds": tp.Clouds(),
	})
	if err != nil {
		t.Fatal(err)
	}
	out := new(topology.Topology)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}
