// Command paperrepro runs every experiment of the paper end to end —
// Tables I/II, Figs. 2–6 (simulation), Figs. 7–8 (MapReduce experiment,
// balanced and skewed variants), and the supplementary heuristic-vs-exact
// gap study — and prints a consolidated report. Figs. 5/6 improvements
// are additionally averaged over several seeds, since a single draw of
// 20 random requests is noisy.
//
// Usage:
//
//	paperrepro [-seed N] [-seeds M] [-json]
//
// -seeds takes 1 to 2^20 seeds. -json emits a machine-readable report
// (schema in internal/report) instead of the human-readable figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"affinitycluster/internal/experiments"
	"affinitycluster/internal/report"
)

// maxSeeds caps -seeds at 2^20, the cap the fault schedule puts on its
// draws: Fig56Averages allocates its per-seed results up front and runs
// Figs. 5 and 6 once per seed, so a larger count runs out of memory or
// time instead of failing.
const maxSeeds = 1 << 20

func main() {
	seed := flag.Int64("seed", 2012, "base random seed")
	seeds := flag.Int("seeds", 10, fmt.Sprintf("number of seeds for the Fig 5/6 averages, 1 to %d", maxSeeds))
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report")
	flag.Parse()

	err := checkSeeds(*seeds)
	if err == nil && *jsonOut {
		err = runJSON(os.Stdout, *seed)
	} else if err == nil {
		err = run(os.Stdout, *seed, *seeds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func runJSON(w io.Writer, seed int64) error {
	r, err := report.Collect(seed)
	if err != nil {
		return err
	}
	return r.WriteJSON(w)
}

// checkSeeds refuses a -seeds count outside 1…maxSeeds.
func checkSeeds(seeds int) error {
	if seeds < 1 || seeds > maxSeeds {
		return fmt.Errorf("-seeds %d outside 1…%d", seeds, maxSeeds)
	}
	return nil
}

func run(w io.Writer, seed int64, seeds int) error {
	if err := checkSeeds(seeds); err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Table I — instance catalog ===")
	fmt.Fprintln(w, experiments.TableI())
	fmt.Fprintln(w, "=== Table II — capacity relationship example ===")
	fmt.Fprintln(w, experiments.TableII())

	f2, err := experiments.Fig2(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f2.Render())

	f3, err := experiments.Fig3(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f3.Render())

	f4, err := experiments.Fig4(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f4.Render())

	f5, err := experiments.Fig5(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f5.Render())

	f6, err := experiments.Fig6(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f6.Render())

	if seeds > 1 {
		normal, small, err := experiments.Fig56Averages(seed, seeds)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig 5/6 averages over %d seeds: normal −%.1f%%, small −%.1f%%\n\n",
			seeds, normal, small)
	}

	f78, err := experiments.Fig7and8(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f78.RenderFig7())
	fmt.Fprintln(w, f78.RenderFig8())

	skew, err := experiments.Fig7and8Skewed(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "--- skewed-input variant (reproduces the paper's Fig 7 anomaly) ---")
	fmt.Fprintln(w, skew.RenderFig7())
	fmt.Fprintln(w, skew.RenderFig8())
	if inv, slower, faster := skew.HasInversion(); inv {
		fmt.Fprintf(w, "anomaly present: %s ran slower than %s despite its shorter distance\n\n", slower, faster)
	}

	gap, err := experiments.ExactGap(seed, 100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Supplementary: Algorithm 1 vs exact SD optimum ===")
	fmt.Fprintln(w, gap.Render())

	base, err := experiments.BaselineComparison(seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Supplementary: strategy comparison ===")
	fmt.Fprintln(w, base.Render())

	sweep, err := experiments.SelectivitySweep(seed, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, sweep.Render())
	return nil
}
