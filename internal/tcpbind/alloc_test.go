package tcpbind

import (
	"context"
	"runtime/debug"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

// TestBufferedCallAllocBudget pins the allocations of one buffered
// exchange, client and server in process over loopback: templated BXSA on
// both sides, an echo handler, one connection. The count covers both ends,
// so it moves when either the client binding or the server channel starts
// or stops allocating per message.
func TestBufferedCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 20
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(core.BXSAEncoding{}, l,
		func(_ context.Context, req *core.Envelope) (*core.Envelope, error) { return req, nil },
		core.WithTemplates(16))
	go srv.Serve()
	defer srv.Close()
	eng := core.NewEngine(core.BXSAEncoding{}, New(NetDialer, l.Addr().String()), core.WithTemplates(16))
	defer eng.Close()

	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", "verify"))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(
		bxdm.NewArray(bxdm.Name("urn:svc", "index"), []int32{1, 2, 3}),
		bxdm.NewArray(bxdm.Name("urn:svc", "vals"), []float64{0.5, 1.5, 2.5}),
	)
	env := core.NewEnvelope(req)
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
