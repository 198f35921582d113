package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
)

func TestStageBreakdownCoversFourCombos(t *testing.T) {
	results, err := StageBreakdown(StageConfig{
		Profile:   netsim.Profile{},
		ModelSize: 50,
		Calls:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SOAP over BXSA/TCP", "SOAP over XML/TCP", "SOAP over BXSA/HTTP", "SOAP over XML/HTTP"}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Scheme != want[i] {
			t.Errorf("result %d scheme = %q, want %q", i, r.Scheme, want[i])
		}
		if r.Calls != 3 {
			t.Errorf("%s: calls = %d, want 3 (warm-up must not count)", r.Scheme, r.Calls)
		}
		if r.Total <= 0 {
			t.Errorf("%s: total = %v, want > 0", r.Scheme, r.Total)
		}
		if r.Encode <= 0 || r.Decode <= 0 {
			t.Errorf("%s: encode %v / decode %v, want both > 0", r.Scheme, r.Encode, r.Decode)
		}
		if r.Total < r.Encode+r.Decode+r.Handler+r.Wire {
			t.Errorf("%s: stage sum %v exceeds total %v",
				r.Scheme, r.Encode+r.Decode+r.Handler+r.Wire, r.Total)
		}
		if r.Client == nil || r.Server == nil {
			t.Fatalf("%s: missing raw snapshots", r.Scheme)
		}
		if r.Client.Counters[obs.CallsCompleted.String()] != 3 {
			t.Errorf("%s: client snapshot calls_completed = %d, want 3",
				r.Scheme, r.Client.Counters[obs.CallsCompleted.String()])
		}
	}
	// The results must serialize: this is the benchharness -obs-json artifact.
	if _, err := json.Marshal(results); err != nil {
		t.Fatalf("results not serializable: %v", err)
	}

	var buf bytes.Buffer
	PrintStageBreakdown(&buf, results)
	out := buf.String()
	for _, col := range []string{"encode", "wire", "handler", "decode", "total"} {
		if !strings.Contains(out, col) {
			t.Errorf("table missing %q column:\n%s", col, out)
		}
	}
	for _, s := range want {
		if !strings.Contains(out, s) {
			t.Errorf("table missing scheme %q:\n%s", s, out)
		}
	}
}

func TestObserverReset(t *testing.T) {
	o := obs.New()
	o.Inc(obs.CallsStarted)
	o.GaugeAdd(obs.PoolInflight, 5)
	o.ObserveStage(obs.ClientEncode, 1000)
	o.Reset()
	if o.Counter(obs.CallsStarted) != 0 || o.Gauge(obs.PoolInflight) != 0 ||
		o.GaugeHighWater(obs.PoolInflight) != 0 || o.StageSnapshot(obs.ClientEncode).Count != 0 {
		t.Error("Reset left state behind")
	}
}
