package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// allocSlack is how far an arm's allocs/op may rise above its base
// before the gate fails. Allocation counts do not depend on the machine,
// and the module keeps no object pool; a slice grown on an amortized
// schedule shows as a fraction of one allocation per op.
const allocSlack = 1

// replaySlack is the relative rise allowed instead when the base arm ran
// one iteration, as BenchmarkSoak's arms do: one op there is a whole
// replay, whose allocs/op still moves a little on unchanged code, from a
// cause not pinned down (the standard library's own pools, fmt's among
// them, are one candidate). Five runs of each arm read 114,003–114,006
// (100k), 1,127,703–1,127,716 (1M) and 37,088–37,092 (elastic-20k), at
// most 13 apart (0.001%); while the placers drew scratch from pools, 1M
// read 1,134,158–1,135,407. One more allocation per replayed request
// adds far more than 0.5%.
const replaySlack = 0.005

// slack returns how far an arm's allocs/op may rise above those of its
// base arm b.
func slack(b Result, baseAllocs float64) float64 {
	if b.Iterations == 1 {
		return replaySlack * baseAllocs
	}
	return allocSlack
}

// readReport decodes a JSON report written by benchjson.
func readReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchjson: decoding report: %w", err)
	}
	return &rep, nil
}

// compare writes one line per arm of cur: its ns/op and allocs/op
// against base, or a note that base lacks it; then a line per arm only
// base has. It returns the names of the arms present in both whose
// allocs/op exceeds the base's by more than its slack, and the names of
// the base's arms cur lacks: a renamed or skipped arm would otherwise
// leave the gate unseen. ns/op is only reported, never judged: it
// depends on the machine.
func compare(w io.Writer, base, cur *Report) (regressed, missing []string) {
	baseArms := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseArms[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Name] = true
		b, ok := baseArms[r.Name]
		if !ok {
			fmt.Fprintf(w, "%s: new arm, not in the base\n", r.Name)
			continue
		}
		line := fmt.Sprintf("%s: ns/op %s", r.Name, delta(b.Metrics, r.Metrics, "ns/op"))
		line += ", allocs/op " + delta(b.Metrics, r.Metrics, "allocs/op")
		ba, okB := b.Metrics["allocs/op"]
		ca, okC := r.Metrics["allocs/op"]
		if okB && okC && ca > ba+slack(b, ba) {
			regressed = append(regressed, r.Name)
			line += fmt.Sprintf("  FAIL: above the base + %g", slack(b, ba))
		}
		fmt.Fprintln(w, line)
	}
	for _, b := range base.Results {
		if !seen[b.Name] {
			missing = append(missing, b.Name)
			fmt.Fprintf(w, "%s: missing, only in the base  FAIL\n", b.Name)
		}
	}
	return regressed, missing
}

// delta renders one metric's base → current change, or "n/a" when
// either report lacks it.
func delta(base, cur map[string]float64, unit string) string {
	b, okB := base[unit]
	c, okC := cur[unit]
	if !okB || !okC {
		return "n/a"
	}
	s := fmt.Sprintf("%g → %g (%+g", b, c, c-b)
	if b != 0 {
		s += fmt.Sprintf(", %+.1f%%", 100*(c-b)/b)
	}
	return s + ")"
}

// runCompare is the -compare mode: the new report on stdin judged
// against the base report in basePath. It returns the process exit
// code: 1 when an arm's allocs/op regressed, an arm of the base is
// missing, or a report is unreadable.
func runCompare(basePath string, stdin io.Reader, stdout, stderr io.Writer) int {
	f, err := os.Open(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	base, err := readReport(f)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", basePath, err)
		return 1
	}
	cur, err := readReport(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "stdin: %v\n", err)
		return 1
	}
	bad, missing := compare(stdout, base, cur)
	code := 0
	if len(bad) > 0 {
		fmt.Fprintf(stderr, "benchjson: allocs/op rose by more than %d (%g%% for a one-iteration arm) against %s in %d arm(s): %v\n",
			allocSlack, 100*replaySlack, basePath, len(bad), bad)
		code = 1
	}
	if len(missing) > 0 {
		fmt.Fprintf(stderr, "benchjson: %d arm(s) of %s missing from the new report: %v\n", len(missing), basePath, missing)
		code = 1
	}
	return code
}
