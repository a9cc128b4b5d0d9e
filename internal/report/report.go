// Package report collects every experiment of the reproduction into one
// machine-readable document, for plotting pipelines and regression
// tracking across library versions. The JSON schema mirrors the
// experiment row types of package experiments.
package report

import (
	"encoding/json"
	"fmt"
	"io"

	"affinitycluster/internal/experiments"
)

// SchemaVersion identifies the report layout.
const SchemaVersion = 3

// Report is the consolidated result of one full reproduction run.
type Report struct {
	Schema int    `json:"schema"`
	Paper  string `json:"paper"`
	Seed   int64  `json:"seed"`

	Fig2 []experiments.Fig2Row  `json:"fig2"`
	Fig3 []experiments.Fig3Row  `json:"fig3"`
	Fig4 []experiments.Fig4Row  `json:"fig4"`
	Fig5 *Fig56Summary          `json:"fig5"`
	Fig6 *Fig56Summary          `json:"fig6"`
	Fig7 []experiments.Fig78Row `json:"fig7Balanced"`
	// Fig7Skewed is the anomaly variant; Anomaly names the inverted pair
	// when present.
	Fig7Skewed []experiments.Fig78Row `json:"fig7Skewed"`
	Anomaly    *AnomalyNote           `json:"anomaly,omitempty"`
}

// Fig56Summary condenses a Fig 5/6 run.
type Fig56Summary struct {
	OnlineTotal    float64                `json:"onlineTotal"`
	GlobalTotal    float64                `json:"globalTotal"`
	ImprovementPct float64                `json:"improvementPct"`
	Rows           []experiments.Fig56Row `json:"rows"`
}

// AnomalyNote records the skewed-run inversion.
type AnomalyNote struct {
	Slower string `json:"slower"`
	Faster string `json:"faster"`
}

// Collect runs every experiment at the given seed and assembles the
// report.
func Collect(seed int64) (*Report, error) {
	r := &Report{
		Schema: SchemaVersion,
		Paper:  "Yan et al., Affinity-aware Virtual Cluster Optimization for MapReduce Applications, CLUSTER 2012",
		Seed:   seed,
	}
	f2, err := experiments.Fig2(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig2: %w", err)
	}
	r.Fig2 = f2.Rows
	f3, err := experiments.Fig3(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig3: %w", err)
	}
	r.Fig3 = f3.Rows
	f4, err := experiments.Fig4(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig4: %w", err)
	}
	r.Fig4 = f4.Rows
	f5, err := experiments.Fig5(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig5: %w", err)
	}
	r.Fig5 = &Fig56Summary{OnlineTotal: f5.OnlineTotal, GlobalTotal: f5.GlobalTotal, ImprovementPct: f5.ImprovementPct, Rows: f5.Rows}
	f6, err := experiments.Fig6(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig6: %w", err)
	}
	r.Fig6 = &Fig56Summary{OnlineTotal: f6.OnlineTotal, GlobalTotal: f6.GlobalTotal, ImprovementPct: f6.ImprovementPct, Rows: f6.Rows}
	f78, err := experiments.Fig7and8(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig7: %w", err)
	}
	r.Fig7 = f78.Rows
	skew, err := experiments.Fig7and8Skewed(seed)
	if err != nil {
		return nil, fmt.Errorf("report: fig7 skewed: %w", err)
	}
	r.Fig7Skewed = skew.Rows
	if inv, slower, faster := skew.HasInversion(); inv {
		r.Anomaly = &AnomalyNote{Slower: slower, Faster: faster}
	}
	return r, nil
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
