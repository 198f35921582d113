package harness

import (
	"context"
	"testing"

	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
)

// pooledCallAllocs measures steady-state allocations per pooled BXSA/TCP
// call with the given observer (nil for the bare PR-4-shaped path, live but
// recorder-less for "tracing disabled").
func pooledCallAllocs(t *testing.T, o *obs.Observer) float64 {
	t.Helper()
	nw := netsim.New(netsim.LAN)
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(l), unifiedHandler)
	go srv.Serve()
	defer srv.Close()
	addr := l.Addr().String()
	pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *tcpbind.Binding], error) {
		return core.NewEngine(core.BXSAEncoding{}, tcpbind.New(nw.Dial, addr),
			core.WithObserver(o)), nil
	}, svcpool.Config{MaxConns: 1}, svcpool.WithObserver(o))
	defer pool.Close()

	m := dataset.Generate(64)
	req := core.NewEnvelope(m.Element())
	ctx := context.Background()
	if _, err := pool.Call(ctx, req); err != nil { // warm-up: dial off the meter
		t.Fatalf("warm-up call: %v", err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := pool.Call(ctx, req); err != nil {
			t.Fatalf("call: %v", err)
		}
	})
}

// BenchmarkPooledCallTracing measures the pooled BXSA/TCP call path with
// tracing absent (no observer), disabled (observer, no recorder), and
// enabled (observer + flight recorder) — the numbers behind the
// tracing-overhead table in EXPERIMENTS.md. ns/op is dominated by the
// shaped LAN RTT; the overhead shows in B/op and allocs/op.
func BenchmarkPooledCallTracing(b *testing.B) {
	variants := []struct {
		name string
		o    func() *obs.Observer
	}{
		{"bare", func() *obs.Observer { return nil }},
		{"disabled", func() *obs.Observer { return obs.New(obs.WithNode("client")) }},
		{"enabled", func() *obs.Observer {
			return obs.New(obs.WithNode("client"),
				obs.WithRecorder(obs.NewRecorder(obs.RecorderConfig{})))
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			o := v.o()
			nw := netsim.New(netsim.LAN)
			l, err := nw.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(l), unifiedHandler)
			go srv.Serve()
			defer srv.Close()
			addr := l.Addr().String()
			pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *tcpbind.Binding], error) {
				return core.NewEngine(core.BXSAEncoding{}, tcpbind.New(nw.Dial, addr),
					core.WithObserver(o)), nil
			}, svcpool.Config{MaxConns: 1}, svcpool.WithObserver(o))
			defer pool.Close()
			m := dataset.Generate(64)
			req := core.NewEnvelope(m.Element())
			ctx := context.Background()
			if _, err := pool.Call(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.Call(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDisabledTracingAddsNoPooledCallAllocs is the end-to-end acceptance
// check for the nil-sink contract on the full client path: a pooled call
// with a live observer but NO recorder (tracing disabled) must allocate
// exactly as much as a call with no observer at all. The trace hooks
// (BeginClientTrace, ContextWithHop, HopFromContext, FinishHop) must
// vanish, not merely stay cheap.
func TestDisabledTracingAddsNoPooledCallAllocs(t *testing.T) {
	if raceEnabled {
		// Under -race, sync.Pool.Put drops one item in four at random, so
		// both measurements take pool misses at random and wobble by a few
		// allocs/op independently of the observer.
		t.Skip("the race detector changes allocation counts")
	}
	// The server's handler goroutines allocate on the meter too, so a busy
	// scheduler can wobble either measurement by ±1 alloc/op; retry a few
	// times and compare best-vs-best before calling it a leak.
	bare, disabled := pooledCallAllocs(t, nil), pooledCallAllocs(t, obs.New(obs.WithNode("client")))
	for attempt := 0; disabled > bare && attempt < 3; attempt++ {
		bare = min(bare, pooledCallAllocs(t, nil))
		disabled = min(disabled, pooledCallAllocs(t, obs.New(obs.WithNode("client"))))
	}
	if disabled > bare {
		t.Errorf("tracing-disabled pooled call allocates %.1f/op vs %.1f/op bare: trace hooks leak onto the disabled path",
			disabled, bare)
	}
	t.Logf("pooled call allocs/op: bare=%.1f observer-without-recorder=%.1f", bare, disabled)
}
