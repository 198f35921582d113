// Command benchharness regenerates the paper's evaluation tables and
// figures (§6) over the simulated LAN/WAN testbeds:
//
//	benchharness -exp table1          # Table 1: serialization sizes
//	benchharness -exp fig4            # Figure 4: small-message response time, LAN
//	benchharness -exp fig5            # Figure 5: large-message bandwidth, LAN
//	benchharness -exp fig6            # Figure 6: large-message bandwidth, WAN
//	benchharness -exp pool            # pooled concurrent throughput, LAN+WAN
//	benchharness -exp slo             # SLO burn-rate lifecycle: deterministic overload ramp, exits non-zero on breach
//	benchharness -exp table1,fig4     # comma-separated lists run several experiments
//	benchharness -exp all -full       # everything, at the paper's full sizes
//
// Output is one table per experiment with the same rows/series the paper
// plots. Absolute numbers differ from the 2006 testbed; EXPERIMENTS.md
// records the shape comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bxsoap/internal/harness"
	"bxsoap/internal/netsim"
)

func main() {
	exp := flag.String("exp", "all", "experiment (comma-separated): table1, fig4, fig5, fig6, pool, slo, or all")
	full := flag.Bool("full", false, "run the complete model-size sweep (up to 5.59M pairs / 64MB; slow)")
	iters := flag.Int("iters", 2, "measured iterations per point (minimum reported)")
	sizesFlag := flag.String("sizes", "", "comma-separated model sizes overriding the experiment's default sweep")
	verbose := flag.Bool("v", false, "print per-point progress")
	flag.Parse()

	customSizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchharness: -sizes: %v\n", err)
		os.Exit(2)
	}

	wanted := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return wanted[name] || wanted["all"] }

	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}

	run := func(name string, f func() error) {
		fmt.Printf("\n=== %s ===\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchharness: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if want("table1") {
		run("Table 1: serialization size of the binary data set (model size = 1000)", func() error {
			rows, err := harness.Table1(1000)
			if err != nil {
				return err
			}
			harness.PrintTable1(os.Stdout, rows)
			return nil
		})
	}

	if want("fig4") {
		run("Figure 4: message response time, small data sets, LAN (0.2 ms RTT)", func() error {
			series, err := harness.Sweep(harness.Figure4Schemes(), harness.SweepConfig{
				Network:  netsim.New(netsim.LAN),
				Sizes:    sizesOr(customSizes, harness.Figure4Sizes),
				Iters:    *iters,
				Progress: progress,
			})
			if err != nil {
				return err
			}
			harness.PrintResponseSeries(os.Stdout, series)
			return nil
		})
	}

	fig56sizes := harness.Figure5Sizes
	switch {
	case customSizes != nil:
		fig56sizes = customSizes
	case !*full:
		fig56sizes = fig56sizes[:5] // up to 349440 pairs (~4 MB) by default
		if want("fig5") || want("fig6") {
			fmt.Fprintln(os.Stderr, "benchharness: using truncated size sweep; pass -full for the paper's 64 MB points")
		}
	}
	// XML/HTTP is hopeless at large sizes (the paper: "lost the game at the
	// very beginning") — cap it to keep runs bounded.
	caps := map[string]int{"SOAP over XML/HTTP": 87360}

	if want("fig5") {
		run("Figure 5: invocation bandwidth, large data sets, LAN", func() error {
			series, err := harness.Sweep(harness.Figure5Schemes(), harness.SweepConfig{
				Network:    netsim.New(netsim.LAN),
				Sizes:      fig56sizes,
				Iters:      *iters,
				MaxSizeFor: caps,
				Progress:   progress,
			})
			if err != nil {
				return err
			}
			harness.PrintBandwidthSeries(os.Stdout, series)
			return nil
		})
	}

	if want("pool") {
		run("Pooled concurrent throughput: svcpool client runtime, BXSA/TCP, model size 500", func() error {
			const size = 500
			var points []harness.ThroughputPoint
			for _, prof := range []netsim.Profile{netsim.LAN, netsim.WAN} {
				for _, conc := range []int{1, 4, 16} {
					calls := 48 * conc
					pt, err := harness.PooledThroughput(netsim.New(prof), "BXSA", "tcp",
						conc, conc, calls, size)
					if err != nil {
						return err
					}
					if progress != nil {
						fmt.Fprintf(progress, "%-4s c=%-3d %.0f calls/s\n", prof.Name, conc, pt.CallsPerSec)
					}
					points = append(points, pt)
				}
			}
			harness.PrintThroughput(os.Stdout, points)
			return nil
		})
	}

	if want("slo") {
		run("SLO burn-rate lifecycle: overload ramp on a simulated clock, BXSA/TCP, LAN", func() error {
			report, err := harness.RunSLORamp(harness.SLORampConfig{Progress: progress})
			if err != nil {
				return err
			}
			harness.PrintSLORamp(os.Stdout, report)
			return nil
		})
	}

	if want("fig6") {
		run("Figure 6: invocation bandwidth, large data sets, WAN (5.75 ms RTT)", func() error {
			series, err := harness.Sweep(harness.Figure6Schemes(), harness.SweepConfig{
				Network:    netsim.New(netsim.WAN),
				Sizes:      fig56sizes,
				Iters:      *iters,
				MaxSizeFor: caps,
				Progress:   progress,
			})
			if err != nil {
				return err
			}
			harness.PrintBandwidthSeries(os.Stdout, series)
			return nil
		})
	}

}

// parseSizes parses "100,2000,50000" into a size list.
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func sizesOr(custom, def []int) []int {
	if custom != nil {
		return custom
	}
	return def
}
