package topology

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzTopologyImportJSON drives the JSON import with arbitrary documents.
// The contract (DESIGN.md §10): every input is either rejected with an
// error or produces a validated plant that round-trips byte-identically —
// no input may panic, and no accepted plant may violate the
// single-cloud-per-rack containment the placement fast paths price
// Definition 1 from, or carry cloud runs (CloudRunEnd) that do not
// partition its rack order into maximal same-cloud stretches.
func FuzzTopologyImportJSON(f *testing.F) {
	if valid, err := json.Marshal(PaperSimPlant()); err == nil {
		f.Add(valid)
	}
	if uni, err := Uniform(2, 3, 4, DefaultDistances()); err == nil {
		if b, err := json.Marshal(uni); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"distances":{"SameNode":0,"SameRack":1,"CrossRack":2,"CrossCloud":4},"nodes":[{"ID":0,"Name":"n0","Rack":0,"Cloud":0}],"racks":1,"clouds":1}`))
	f.Add([]byte(`{"nodes":[{"ID":0,"Rack":0,"Cloud":0}],"racks":-1,"clouds":1}`))
	f.Add([]byte(`{"nodes":[{"ID":0,"Rack":0,"Cloud":0}],"racks":99999999999,"clouds":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tp Topology
		if err := json.Unmarshal(data, &tp); err != nil {
			return // rejected: acceptable for arbitrary input
		}
		// Accepted plants satisfy the structural invariants…
		if tp.Nodes() <= 0 || tp.Racks() <= 0 || tp.Clouds() <= 0 {
			t.Fatalf("accepted plant with empty tier: nodes=%d racks=%d clouds=%d", tp.Nodes(), tp.Racks(), tp.Clouds())
		}
		for i := 0; i < tp.Nodes(); i++ {
			id := NodeID(i)
			r, c := tp.RackOf(id), tp.CloudOf(id)
			if r < 0 || r >= tp.Racks() {
				t.Fatalf("node %d rack %d out of range", i, r)
			}
			if c < 0 || c >= tp.Clouds() {
				t.Fatalf("node %d cloud %d out of range", i, c)
			}
			if tp.CloudOfRack(r) != c {
				t.Fatalf("node %d: rack %d maps to cloud %d, node claims %d", i, r, tp.CloudOfRack(r), c)
			}
			if d := tp.Distance(id, id); d != tp.Distances().SameNode {
				t.Fatalf("self-distance of node %d = %v, want %v", i, d, tp.Distances().SameNode)
			}
		}
		// The scan's cloud runs partition its rack order into maximal
		// same-cloud stretches, however the import interleaves clouds.
		order := tp.RacksByLowestNode()
		for p := 0; p < len(order); {
			end := tp.CloudRunEnd(p)
			if end <= p || end > len(order) {
				t.Fatalf("CloudRunEnd(%d) = %d outside (%d, %d]", p, end, p, len(order))
			}
			c := tp.CloudOfRack(order[p])
			for q := p; q < end; q++ {
				if tp.CloudOfRack(order[q]) != c || tp.CloudRunEnd(q) != end {
					t.Fatalf("run [%d,%d) of cloud %d: position %d in cloud %d, run end %d", p, end, c, q, tp.CloudOfRack(order[q]), tp.CloudRunEnd(q))
				}
			}
			if end < len(order) && tp.CloudOfRack(order[end]) == c {
				t.Fatalf("run [%d,%d) of cloud %d is not maximal", p, end, c)
			}
			p = end
		}
		// …and round-trip byte-identically.
		out, err := json.Marshal(&tp)
		if err != nil {
			t.Fatalf("re-marshal of accepted plant failed: %v", err)
		}
		var tp2 Topology
		if err := json.Unmarshal(out, &tp2); err != nil {
			t.Fatalf("round-trip of accepted plant rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(&tp2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round-trip not byte-identical:\n%s\nvs\n%s", out, out2)
		}
	})
}
