// Schema-compiled template benchmarks: the same engine/server round trip
// as BenchmarkRoundTripAllocs, generic and with the shape-keyed template
// cache enabled on both sides. The templated BXSA/TCP row is the
// tentpole's headline number — a skeleton splice per call instead of a
// tree walk — and EXPERIMENTS.md tracks the before/after allocs table.
package bxsoap

import (
	"context"
	"fmt"
	"testing"

	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/netsim"
	"bxsoap/internal/tcpbind"
)

// benchTemplatedRoundTrip mirrors benchRoundTrip with core.WithTemplates
// threaded into both sides when capacity > 0.
func benchTemplatedRoundTrip[E core.Encoding](b *testing.B, enc E, transport string, size, capacity int) {
	b.Helper()
	nw := netsim.New(netsim.LAN)
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var engOpts []core.EngineOption
	var srvOpts []core.ServerOption
	if capacity > 0 {
		engOpts = append(engOpts, core.WithTemplates(capacity))
		srvOpts = append(srvOpts, core.WithTemplates(capacity))
	}
	var call func(*core.Envelope) (*core.Envelope, error)
	var closers []func() error
	switch transport {
	case "tcp":
		srv := core.NewServer(enc, tcpbind.NewListener(l), echoHandler, srvOpts...)
		go srv.Serve()
		eng := core.NewEngine(enc, tcpbind.New(nw.Dial, l.Addr().String()), engOpts...)
		call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		closers = []func() error{eng.Close, srv.Close}
	case "http":
		hl := httpbind.NewListener(l)
		srv := core.NewServer(enc, hl, echoHandler, srvOpts...)
		go srv.Serve()
		eng := core.NewEngine(enc, httpbind.New(nw.Dial, hl.URL()), engOpts...)
		call = func(e *core.Envelope) (*core.Envelope, error) { return eng.Call(context.Background(), e) }
		closers = []func() error{eng.Close, srv.Close}
	default:
		b.Fatalf("unknown transport %q", transport)
	}
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	env := core.NewEnvelope(dataset.Generate(size).Element())
	// Three warm-ups: the first dials and records the request and response
	// shapes as first sightings on both sides, the second compiles them
	// (plan admission compiles a shape on its second sighting), and the
	// third settles the caches so the measured loop is pure steady state.
	for w := 0; w < 3; w++ {
		if _, err := call(env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := call(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTemplatedCalls compares generic and templated round trips for
// every (encoding, transport) composition at model size 500 on the LAN
// profile. Read Templated vs Generic within a combo; the netsim RTT
// dominates ns/op, so allocs/op is the sharper signal.
func BenchmarkTemplatedCalls(b *testing.B) {
	const size = 500
	for _, mode := range []struct {
		name     string
		capacity int
	}{
		{"Templated", 16},
		{"Generic", 0},
	} {
		for _, tr := range []string{"tcp", "http"} {
			b.Run(fmt.Sprintf("%s/BXSA/%s", mode.name, tr), func(b *testing.B) {
				benchTemplatedRoundTrip(b, core.BXSAEncoding{}, tr, size, mode.capacity)
			})
			b.Run(fmt.Sprintf("%s/XML/%s", mode.name, tr), func(b *testing.B) {
				benchTemplatedRoundTrip(b, core.XMLEncoding{}, tr, size, mode.capacity)
			})
		}
	}
}
