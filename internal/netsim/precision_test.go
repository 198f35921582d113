package netsim

import (
	"testing"
	"time"
)

func TestSleepPreciseAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	for _, d := range []time.Duration{
		100 * time.Microsecond,
		500 * time.Microsecond,
		2 * time.Millisecond,
	} {
		best := time.Duration(1 << 62)
		for i := 0; i < 8; i++ {
			start := time.Now()
			sleepPrecise(d)
			got := time.Since(start)
			if got < d {
				t.Fatalf("sleepPrecise(%v) returned early after %v", d, got)
			}
			if over := got - d; over < best {
				best = over
			}
		}
		// The whole point of the spin tail: overshoot stays far below the
		// 1 ms-class timer granularity that would otherwise swamp a 0.2 ms
		// RTT. Judge the best of several attempts — the capability — so a
		// loaded CI machine (e.g. concurrent benchmarks) doesn't flake the
		// test; scheduling noise inflates the worst case arbitrarily.
		if best > 500*time.Microsecond {
			t.Errorf("sleepPrecise(%v) minimum overshoot %v", d, best)
		}
	}
}

func TestSleepPreciseZeroAndNegative(t *testing.T) {
	start := time.Now()
	sleepPrecise(0)
	sleepPrecise(-time.Second)
	if time.Since(start) > 10*time.Millisecond {
		t.Error("non-positive sleeps should return immediately")
	}
}

func TestWANSlowerThanLAN(t *testing.T) {
	lan := measureRTT(t, New(LAN))
	wan := measureRTT(t, New(WAN))
	if wan < lan*5 {
		t.Errorf("WAN RTT (%v) not clearly above LAN RTT (%v)", wan, lan)
	}
	// And both track their configured values within a factor of ~3.
	if lan > LAN.RTT*3 {
		t.Errorf("LAN measured %v, configured %v", lan, LAN.RTT)
	}
	if wan > WAN.RTT*3 {
		t.Errorf("WAN measured %v, configured %v", wan, WAN.RTT)
	}
}
