package muxbind

import (
	"context"
	"net"
	"runtime/debug"
	"testing"

	"bxsoap/internal/core"
)

// TestBufferedCallAllocBudget pins the allocations of one buffered mux
// exchange, client and server in process over loopback: templated BXSA on
// both sides, an echo handler, one session. The count covers both ends,
// so it moves when the client binding, the session's reader or writer, or
// the server's admission and worker path starts or stops allocating.
func TestBufferedCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 23
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.BXSAEncoding{}, echoHandler, Config{}, core.WithTemplates(16))
	go srv.Serve(l)
	defer srv.Close()
	tr := NewTransport(NetDialer, l.Addr().String(), WithMaxSessions(1))
	defer tr.Close()
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), core.WithTemplates(16))
	env := sampleEnvelope()
	call := func() {
		if _, err := eng.Call(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and the template caches off the meter, then keep the
	// collector out of the measured loop so pooled state survives.
	for i := 0; i < 200; i++ {
		call()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := testing.AllocsPerRun(2000, call); got > budget {
		t.Errorf("%.0f allocs per buffered call, budget %d", got, budget)
	} else {
		t.Logf("%.1f allocs per buffered call (budget %d)", got, budget)
	}
}
