package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"bxsoap/internal/core"
)

var quick = config{seed: 1, window: 200 * time.Millisecond, setups: 1, warmDiv: 50, ladderIters: 3}

// checkReport asserts that a printed pass names exactly the declared
// metrics, each once, in its table and in its JSON line.
func checkReport(t *testing.T, text string, decl []metricSpec, optional bool) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, text)
	}
	if len(jr.Metrics) != len(decl) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(jr.Metrics), len(decl))
	}
	for _, m := range decl {
		got, ok := jr.Metrics[m.Name]
		if !ok {
			t.Errorf("result lacks declared metric %s", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s reported in %q, declared in %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %v", m.Name, got.Value)
		}
		rows := 0
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) == 3 && f[0] == m.Name {
				rows++
			}
		}
		if rows > 1 || (rows == 0 && !optional) {
			t.Errorf("%s is printed %d times", m.Name, rows)
		}
		if !optional && got.Value <= 0 {
			t.Errorf("%s = %v, want a positive value", m.Name, got.Value)
		}
	}
	return jr
}

func TestEveryWorkloadEmitsEveryDeclaredMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := mainPass(w, quick)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := report(&out, title("main", w, sp), sp.EndToEnd, false, res); err != nil {
				t.Fatal(err)
			}
			jr := checkReport(t, out.String(), sp.EndToEnd, false)
			if jr.Failed != 0 || !jr.Correct || jr.Attempted < 1 {
				t.Errorf("attempted %d, failed %d, correct %v: %v", jr.Attempted, jr.Failed, jr.Correct, res.firstErr)
			}
			if n := core.PayloadsInUse(); n != 0 {
				t.Errorf("core.PayloadsInUse() = %d after teardown", n)
			}

			res, err = tracedPass(w, quick, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			out.Reset()
			if err := report(&out, title("traced", w, sp), sp.PerLayer, true, res); err != nil {
				t.Fatal(err)
			}
			jr = checkReport(t, out.String(), sp.PerLayer, true)
			if jr.Failed != 0 {
				t.Errorf("traced pass: %d of %d calls failed: %v", jr.Failed, jr.Attempted, res.firstErr)
			}
			for _, name := range []string{"core.dispatch_ns", "core.client_encode_us", "driver.samples"} {
				if jr.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, jr.Metrics[name].Value)
				}
			}
			waits := 0
			for name, m := range jr.Metrics {
				if strings.HasSuffix(name, ".wait_us") && m.Value > 0 {
					waits++
				}
			}
			if waits != 1 {
				t.Errorf("%d bindings report a wait, want exactly the workload's own", waits)
			}
			if n := core.PayloadsInUse(); n != 0 {
				t.Errorf("core.PayloadsInUse() = %d after the traced pass", n)
			}
		})
	}
}

func TestReportRejectsUndeclaredAndMissingMetrics(t *testing.T) {
	decl := []metricSpec{{Name: "a", Unit: "s"}}
	var out bytes.Buffer
	if err := report(&out, "t", decl, false, &passResult{metrics: map[string]float64{}}); err == nil {
		t.Error("a missing declared metric was accepted")
	}
	if err := report(&out, "t", decl, true, &passResult{metrics: map[string]float64{"a": 1, "b": 2}}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100000
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
	var other hist
	other.record(5_000_000_000)
	h.merge(&other)
	if got := h.quantile(1); got < 4.9e9 || got > 5.1e9 {
		t.Errorf("max after merge = %v", got)
	}
}

func TestWorseFollowsTheMetricsDirection(t *testing.T) {
	lower, higher := metricSpec{Better: "lower"}, metricSpec{Better: "higher"}
	if d := worse(lower, 100, 110); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: %v", d)
	}
	if d := worse(higher, 100, 90); math.Abs(d-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90: %v", d)
	}
	if worse(higher, 100, 110) >= 0 || worse(lower, 100, 90) >= 0 {
		t.Error("an improvement counts as worse")
	}
}
