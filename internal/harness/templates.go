package harness

// The templates experiment: the four unified policy combinations measured
// generically and again with the shape-keyed template cache enabled on
// both sides, so the artifact diff shows what schema-compiled plans buy
// per combo — chiefly allocs/op on BXSA (skeleton splice instead of a tree
// walk) and encode time on XML (static segments instead of re-rendered
// markup).

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"bxsoap/internal/dataset"
	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
)

// templateCacheShapes is the per-side cache capacity used by the
// experiment; the workload has exactly two shapes (request, reply), so
// anything past that is headroom.
const templateCacheShapes = 16

// TemplateBreakdown measures every unified combo twice — generic, then
// templated — under identical conditions: fresh observers, a fresh shaped
// network, warm-up calls that also prime the template cache, and a
// measured loop bracketed by MemStats reads for per-call heap churn. The
// returned results interleave as generic, templated per combo and carry
// the same fields the stage experiment exports, so they flatten into the
// same bench artifact via BenchRecords.
func TemplateBreakdown(cfg StageConfig) ([]StageResult, error) {
	if cfg.ModelSize <= 0 {
		cfg.ModelSize = 1000
	}
	if cfg.Calls <= 0 {
		cfg.Calls = 40
	}
	combos := []struct{ encoding, transport string }{
		{"BXSA", "tcp"},
		{"XML", "tcp"},
		{"BXSA", "http"},
		{"XML", "http"},
	}
	m := dataset.Generate(cfg.ModelSize)
	out := make([]StageResult, 0, 2*len(combos))
	for _, c := range combos {
		for _, templated := range []bool{false, true} {
			cliObs := obs.New(obs.WithNode("client"), obs.WithWindow(harnessWindow))
			srvObs := obs.New(obs.WithNode("server"), obs.WithWindow(harnessWindow))
			nw := netsim.New(cfg.Profile, netsim.WithObserver(cliObs))
			var u *Unified
			if templated {
				u = NewTemplatedUnified(c.encoding, c.transport, templateCacheShapes)
			} else {
				u = NewUnified(c.encoding, c.transport)
			}
			u.ClientObs, u.ServerObs = cliObs, srvObs
			if err := u.Setup(nw, ""); err != nil {
				return nil, fmt.Errorf("%s: setup: %w", u.Name(), err)
			}
			// Three warm-up calls: the first records the request and reply
			// shapes as first sightings, the second compiles them on their
			// respective sides (plan admission compiles a shape on its
			// second sighting), the third verifies the templated steady
			// state before anything is measured.
			for w := 0; w < 3; w++ {
				if _, err := u.Invoke(m); err != nil {
					u.Teardown()
					return nil, fmt.Errorf("%s: warm-up: %w", u.Name(), err)
				}
			}
			// Rotate into a fresh window before resetting, as in
			// StageBreakdown: warm-up stragglers carry the old tick and
			// cannot reach the measured window's percentiles.
			cliObs.NextWindow()
			srvObs.NextWindow()
			cliObs.Reset()
			srvObs.Reset()
			runtime.GC()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := 0; i < cfg.Calls; i++ {
				verified, err := u.Invoke(m)
				if err != nil {
					u.Teardown()
					return nil, fmt.Errorf("%s: call %d: %w", u.Name(), i, err)
				}
				if verified != m.Verify() {
					u.Teardown()
					return nil, fmt.Errorf("%s: call %d verified %d of %d", u.Name(), i, verified, cfg.ModelSize)
				}
			}
			elapsed := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			r := deriveStages(u.Name(), cliObs, srvObs, cfg.Window)
			r.NsPerOp = elapsed.Nanoseconds() / int64(cfg.Calls)
			r.BytesPerOp = (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(cfg.Calls)
			r.AllocsPerOp = (ms1.Mallocs - ms0.Mallocs) / uint64(cfg.Calls)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-38s ns/op=%-10d allocs/op=%-6d hits=%d\n",
					r.Scheme, r.NsPerOp, r.AllocsPerOp, cliObs.Counter(obs.TemplateHits))
			}
			if err := u.Teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", u.Name(), err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// PrintTemplateComparison renders generic-vs-templated pairs side by side
// with the speedup and allocation reduction per combo.
func PrintTemplateComparison(w io.Writer, results []StageResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "combo\tgeneric ns/op\ttemplated ns/op\tspeedup\tgeneric allocs/op\ttemplated allocs/op")
	for i := 0; i+1 < len(results); i += 2 {
		gen, tpl := results[i], results[i+1]
		speedup := "-"
		if tpl.NsPerOp > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(gen.NsPerOp)/float64(tpl.NsPerOp))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%d\t%d\n",
			gen.Scheme, gen.NsPerOp, tpl.NsPerOp, speedup, gen.AllocsPerOp, tpl.AllocsPerOp)
	}
	tw.Flush()
}
