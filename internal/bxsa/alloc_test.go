package bxsa

import (
	"bytes"
	"runtime/debug"
	"testing"

	"bxsoap/internal/bxdm"
)

// TestDecodeAllocBudgets holds decode allocation counts at or below their
// budgets. Counts are exact where timings are noisy, so they are what a
// test can gate on. The fixtures are the benchmarks' (ParseArray1000,
// SkipScanVsFullParse, SelectiveDecode), each also decoded from a reader.
func TestDecodeAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// No collection during the measured loop, so pooled decoder state
	// survives between runs and the count is the steady-state one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	marshal := func(n bxdm.Node) []byte {
		data, err := Marshal(n, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	arrays, flat, lazy := marshal(array1000Root()), marshal(flatRoot()), marshal(lazyDoc())
	parse := func(data []byte) func() error {
		return func() error { _, err := Parse(data); return err }
	}
	var r bytes.Reader
	read := func(data []byte) func() error {
		return func() error { r.Reset(data); _, err := DecodeReader(&r); return err }
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"ParseArray1000", 13, parse(arrays)},
		{"skip-scan", 2, func() error { _, err := skipScan(flat); return err }},
		{"full-parse", 504, parse(flat)},
		{"scan-and-decode-one", 11, func() error { return scanDecodeOne(lazy) }},
		{"parse-everything", 311, parse(lazy)},
		{"DecodeReader/Array1000", 17, read(arrays)},
		{"DecodeReader/full-parse", 704, read(flat)},
		{"DecodeReader/parse-everything", 412, read(lazy)},
	} {
		if err := c.run(); err != nil { // warm the pools off the meter
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			if err := c.run(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per decode, budget %.0f", c.name, got, c.budget)
		}
	}
}
