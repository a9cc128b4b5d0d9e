// Metrics export: a deterministic JSON snapshot for machines and a
// stats-rendered summary for humans.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"affinitycluster/internal/stats"
)

// WriteMetricsJSON writes the metric snapshot as indented JSON.
// encoding/json serializes map keys sorted, so the output of a
// deterministic run is byte-identical across runs.
func (r *Registry) WriteMetricsJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}

// RenderSummary renders every registered metric as aligned ASCII tables
// (via the stats toolkit), one section per metric kind, names sorted.
func (r *Registry) RenderSummary() string {
	if r == nil {
		return ""
	}
	snap := r.Snapshot()
	out := ""
	if len(snap.Counters) > 0 {
		t := &stats.Table{Header: []string{"counter", "value"}}
		for _, name := range sortedKeys(snap.Counters) {
			t.Add(name, snap.Counters[name])
		}
		out += t.String()
	}
	if len(snap.Gauges) > 0 {
		t := &stats.Table{Header: []string{"gauge", "value"}}
		for _, name := range sortedKeys(snap.Gauges) {
			t.Add(name, snap.Gauges[name])
		}
		out += "\n" + t.String()
	}
	if len(snap.Histograms) > 0 {
		t := &stats.Table{Header: []string{"histogram", "n", "mean", "under", "over"}}
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			t.Add(name, h.N, h.Mean(), h.Under, h.Over)
		}
		out += "\n" + t.String()
	}
	if n := r.EventCount(); n > 0 {
		out += fmt.Sprintf("\ntrace: %d events\n", n)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
