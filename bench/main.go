// Command bench is the repository's benchmark: five closed-loop SOAP
// workloads against the real engine, server, bindings and codecs over plain
// unshaped loopback TCP, with client and server in one process. A main pass
// measures the end-to-end metrics with every observer nil; a separate traced
// pass times calls into each module's public functions from outside to
// produce the per-layer metrics. BENCHMARK.json at the repository root
// declares every workload and metric by name; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the line the driver reads: the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one pass: a header, every declared metric by name with its
// unit, the pass's notes, and the JSON line. A declared metric the pass has
// no value for prints as 0 when optional (a per-layer metric of a layer the
// workload does not execute) and is an error otherwise.
func report(w io.Writer, title string, decl []metricSpec, optional bool, res *passResult) error {
	fmt.Fprintln(w, title)
	jr := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(decl)),
	}
	for _, m := range decl {
		v, ok := res.metrics[m.Name]
		if !ok && !optional {
			return fmt.Errorf("no value for declared metric %s", m.Name)
		}
		jr.Metrics[m.Name] = jsonMetric{v, m.Unit}
		if ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	for name := range res.metrics {
		if _, ok := jr.Metrics[name]; !ok {
			return fmt.Errorf("metric %s is measured but not declared in BENCHMARK.json", name)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	if res.firstErr != nil {
		fmt.Fprintf(w, "  # first failure: %v\n", res.firstErr)
	}
	line, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload (default: all, in the fixed order)")
		seed    = fs.Int64("seed", 1, "seed the messages are generated from")
		seconds = fs.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", -1, "0: main pass only, 1: traced pass only (default: main pass, then traced pass)")
		check   = fs.Bool("check", false, "run the main pass twice and the traced pass once; fail if the two disagree beyond the bounds")
		specAt  = fs.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		outDir  = fs.String("out", "bench/out", "directory the traced pass writes trace-<workload>.json to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specAt)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	cfg := config{
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		setups:  5,
		warmDiv: 1,
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	start := time.Now()
	fmt.Fprintf(stdout, "# bxsoap bench: seed %d, window %.1f s, nproc %d, GOMAXPROCS %d, %s\n",
		cfg.seed, *seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintln(stdout, "# plain unshaped loopback TCP (127.0.0.1); client and server share one process and one heap; closed loop")
	if *check {
		err = runCheck(stdout, sp, selected, cfg, *outDir)
	} else {
		err = runPasses(stdout, sp, selected, cfg, *trace, *outDir)
	}
	fmt.Fprintf(os.Stderr, "# total wall time %.1f s\n", time.Since(start).Seconds())
	return err
}

func title(pass string, w *workload, sp *spec) string {
	return fmt.Sprintf("%s %s: %s; %d caller(s) / %d conn(s); pairs %v\n  # why: %s",
		pass, w.name, w.composition, w.callers, w.conns, shapeLabel(w.shapes), sp.why(w.name))
}

func shapeLabel(shapes []int) string {
	if len(shapes) == 1 {
		return fmt.Sprint(shapes[0])
	}
	return fmt.Sprintf("%d..%d (%d shapes)", shapes[0], shapes[len(shapes)-1], len(shapes))
}

func runPasses(stdout io.Writer, sp *spec, selected []workload, cfg config, trace int, outDir string) error {
	if trace != 1 {
		for i := range selected {
			w := &selected[i]
			res, err := mainPass(w, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := report(stdout, title("main", w, sp), sp.EndToEnd, false, res); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
	}
	if trace != 0 {
		for i := range selected {
			w := &selected[i]
			res, err := tracedPass(w, cfg, outDir)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", w.name, err)
			}
			if err := report(stdout, title("traced", w, sp), sp.PerLayer, true, res); err != nil {
				return fmt.Errorf("%s (traced): %w", w.name, err)
			}
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
