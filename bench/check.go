package main

import (
	"fmt"
	"io"
)

// worse reports by what share of a the value b is worse, given the metric's
// direction (negative when b is better).
func worse(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck is the self-agreement check: the main pass twice and the traced
// pass once, in one process. It fails, naming workload and metric, when an
// end-to-end metric of the second set is worse than the first by more than
// its bound (or the first worse than the second: the same code ran both), or
// when a traced pass does not close.
func runCheck(stdout io.Writer, sp *spec, selected []workload, cfg config, outDir string) error {
	var failures []string
	sets := make([]map[string]*passResult, 2)
	for s := range sets {
		sets[s] = make(map[string]*passResult)
		for i := range selected {
			w := &selected[i]
			res, err := mainPass(w, cfg)
			if err != nil {
				return fmt.Errorf("%s (set %d): %w", w.name, s+1, err)
			}
			if err := report(stdout, title(fmt.Sprintf("main set %d", s+1), w, sp), sp.EndToEnd, false, res); err != nil {
				return err
			}
			if res.failed > 0 {
				failures = append(failures, fmt.Sprintf("%s set %d: %d of %d calls failed", w.name, s+1, res.failed, res.attempted))
			}
			sets[s][w.name] = res
		}
	}
	fmt.Fprintln(stdout, "check: second set against first (positive = second worse)")
	for i := range selected {
		name := selected[i].name
		for _, m := range sp.EndToEnd {
			a, b := sets[0][name].metrics[m.Name], sets[1][name].metrics[m.Name]
			d := worse(m, a, b)
			verdict := "ok"
			if d > m.Bound || worse(m, b, a) > m.Bound {
				verdict = "OUTSIDE BOUND"
				failures = append(failures, fmt.Sprintf("%s %s: %.6g then %.6g, %+.1f%% against a bound of %.1f%%", name, m.Name, a, b, 100*d, 100*m.Bound))
			}
			fmt.Fprintf(stdout, "  %-12s %-22s %14.4f %14.4f %+7.2f%% (bound %4.1f%%) %s\n", name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	for i := range selected {
		w := &selected[i]
		res, err := tracedPass(w, cfg, outDir)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		if err := report(stdout, title("traced", w, sp), sp.PerLayer, true, res); err != nil {
			return err
		}
		if res.failed > 0 {
			failures = append(failures, fmt.Sprintf("%s traced: %d of %d calls failed", w.name, res.failed, res.attempted))
		}
		if u := res.metrics["driver.unattributed_pct"]; u > unattributedLimit {
			failures = append(failures, fmt.Sprintf("%s driver.unattributed_pct: %.1f%% exceeds %.0f%%", w.name, u, unattributedLimit))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(stdout, "check FAILED:", f)
		}
		return fmt.Errorf("check: %d disagreement(s)", len(failures))
	}
	fmt.Fprintln(stdout, "check passed: both sets agree within every bound and every traced pass closes")
	return nil
}
