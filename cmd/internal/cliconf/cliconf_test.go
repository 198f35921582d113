package cliconf

import (
	"flag"
	"testing"
	"time"

	"bxsoap/internal/obs"
)

func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	c := new(Common)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterEndpoint(fs, c)
	RegisterEngine(fs, c)
	RegisterPool(fs, c)
	RegisterObs(fs, c)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidate(t *testing.T) {
	if err := parse(t).Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	if err := parse(t, "-mux", "-transport", "http").Validate(); err == nil {
		t.Error("mux over http accepted")
	}
	if err := parse(t, "-encoding", "exi").Validate(); err == nil {
		t.Error("unknown encoding accepted")
	}
	if err := parse(t, "-stream", "-chunk-bytes", "0").Validate(); err == nil {
		t.Error("zero chunk window accepted with -stream")
	}

	c := parse(t, "-conns", "3")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Inflight != 3 {
		t.Errorf("Inflight default = %d, want conns (3)", c.Inflight)
	}
}

func TestStreamChunk(t *testing.T) {
	if got := parse(t).StreamChunk(); got != 0 {
		t.Errorf("StreamChunk without -stream = %d, want 0", got)
	}
	c := parse(t, "-stream", "-chunk-bytes", "4096")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.StreamChunk(); got != 4096 {
		t.Errorf("StreamChunk = %d, want 4096", got)
	}
	if got := len(c.EngineOptions(nil)); got != 2 {
		t.Errorf("EngineOptions count = %d, want observer+streaming", got)
	}
}

func TestLabel(t *testing.T) {
	if got := parse(t, "-transport", "http").Label(); got != "http" {
		t.Errorf("Label = %q, want http", got)
	}
	if got := parse(t, "-mux").Label(); got != "mux" {
		t.Errorf("Label = %q, want mux", got)
	}
}

func TestParseEndpoint(t *testing.T) {
	ep, err := ParseEndpoint("XML/TCP:127.0.0.1:8800")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Encoding != "xml" || ep.Transport != "tcp" || ep.Addr != "127.0.0.1:8800" {
		t.Errorf("parsed %+v", ep)
	}
	for _, bad := range []string{"", "bxsa:addr", "bxsa/quic:addr", "exi/tcp:addr", "bxsa/tcp:"} {
		if _, err := ParseEndpoint(bad); err == nil {
			t.Errorf("ParseEndpoint(%q) accepted", bad)
		}
	}
}

func TestParseSLO(t *testing.T) {
	good := []struct {
		in   string
		want obs.SLO
	}{
		{"data:p99=5ms", obs.SLO{Op: "data", P99: 5 * time.Millisecond}},
		{"data:p99=5ms,err=1%", obs.SLO{Op: "data", P99: 5 * time.Millisecond, MaxErrRate: 0.01}},
		{"data:err=0.02", obs.SLO{Op: "data", MaxErrRate: 0.02}},
		{"op:p99=1.5s,err=10%,burn=4", obs.SLO{Op: "op", P99: 1500 * time.Millisecond, MaxErrRate: 0.1, Burn: 4}},
	}
	for _, tc := range good {
		got, err := ParseSLO(tc.in)
		if err != nil {
			t.Errorf("ParseSLO(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSLO(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}

	bad := []string{
		"",              // empty
		"data",          // no objectives
		":p99=5ms",      // empty op
		"data:p99",      // no value
		"data:p99=fast", // bad duration
		"data:p99=-5ms", // negative target
		"data:err=150%", // over 100%
		"data:err=-1%",  // negative
		"data:burn=0",   // non-positive threshold
		"data:p50=5ms",  // unknown objective
		"data:burn=2",   // neither p99 nor err
	}
	for _, in := range bad {
		if slo, err := ParseSLO(in); err == nil {
			t.Errorf("ParseSLO(%q) = %+v, want error", in, slo)
		}
	}
}

// The repeatable -slo flag accumulates declarations in order.
func TestSLOListFlag(t *testing.T) {
	c := parse(t, "-slo", "data:p99=5ms", "-slo", "query:err=1%")
	if len(c.SLOs) != 2 || c.SLOs[0].Op != "data" || c.SLOs[1].Op != "query" {
		t.Fatalf("SLOs = %+v, want data then query", c.SLOs)
	}
}

// NewObserver applies the observability flags: SLO declarations switch on
// the dimensional registry and the burn-rate engine, and -slow-ms seeds
// (or disables) the recorder's slow-trace threshold.
func TestNewObserverAppliesObsFlags(t *testing.T) {
	c := parse(t, "-slo", "data:p99=5ms", "-slow-ms", "25")
	o := c.NewObserver("test")
	if !o.Dimensional() {
		t.Error("observer not dimensional despite a declared SLO")
	}
	if st := o.SLOStatus(); len(st) != 1 || st[0].Op != "data" {
		t.Errorf("SLOStatus = %+v, want one entry for data", st)
	}
	// 25ms from the flag, tightened to the SLO's 5ms target.
	if got := o.Recorder().SlowThreshold(); got != 5*time.Millisecond {
		t.Errorf("slow threshold = %v, want 5ms", got)
	}

	c = parse(t, "-slow-ms", "-1")
	if got := c.NewObserver("test").Recorder().SlowThreshold(); got >= 0 {
		t.Errorf("slow threshold = %v, want negative (disabled)", got)
	}

	plain := parse(t)
	o = plain.NewObserver("test")
	if o.Dimensional() {
		t.Error("observer dimensional with no SLOs declared")
	}
	if got := o.Recorder().SlowThreshold(); got != time.Millisecond {
		t.Errorf("default slow threshold = %v, want 1ms", got)
	}
}
