package httpbind

import (
	"context"
	"runtime/debug"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

// TestBufferedCallAllocBudget pins the allocations of one buffered
// exchange, client and server in process over loopback: the generic XML
// codec on both sides, an echo handler, and the xml-array workload's
// message shape (1000 int32/float64 pairs). The count covers both ends and
// net/http's own per-request work, so it moves when either the client
// binding or the server channel starts or stops allocating per message.
func TestBufferedCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 284
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(core.XMLEncoding{}, l,
		func(_ context.Context, req *core.Envelope) (*core.Envelope, error) { return req, nil })
	go srv.Serve()
	defer srv.Close()
	eng := core.NewEngine(core.XMLEncoding{}, New(nil, l.URL()))
	defer eng.Close()

	const n = 1000
	index, vals := make([]int32, n), make([]float64, n)
	for i := range index {
		index[i], vals[i] = int32(i), 850+float64(i)/8
	}
	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", "data"))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(
		bxdm.NewArray(bxdm.Name("urn:svc", "index"), index),
		bxdm.NewArray(bxdm.Name("urn:svc", "values"), vals),
	)
	env := core.NewEnvelope(req)
	call := func() {
		if _, err := eng.Call(context.Background(), env); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and net/http's idle connection off the meter, then
	// keep the collector out of the measured loop so pooled state survives.
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
