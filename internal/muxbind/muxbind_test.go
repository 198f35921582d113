package muxbind

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
	"bxsoap/internal/svcpool"
)

func sampleEnvelope() *core.Envelope {
	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", "verify"))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(
		bxdm.NewArray(bxdm.Name("urn:svc", "index"), []int32{1, 2, 3}),
		bxdm.NewArray(bxdm.Name("urn:svc", "vals"), []float64{0.5, 1.5, 2.5}),
	)
	return core.NewEnvelope(req)
}

func echoHandler(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	return req, nil
}

// startServer runs a mux server for the test's lifetime and returns its
// dial address.
func startServer(t *testing.T, nw *netsim.Network, h core.Handler, cfg Config, opts ...core.ServerOption) (string, *Server[core.BXSAEncoding]) {
	t.Helper()
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.BXSAEncoding{}, h, cfg, opts...)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv
}

// waitPayloadsSettled polls for async writer releases to finish before the
// payload-leak assertion.
func waitPayloadsSettled(t *testing.T, baseline int64) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if core.PayloadsInUse() == baseline {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Errorf("PayloadsInUse = %d, want baseline %d (payload leaked across the demux boundary)",
		core.PayloadsInUse(), baseline)
}

func TestMuxRoundTrip(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	addr, _ := startServer(t, nw, echoHandler, Config{})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(2))
	defer tr.Close()
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
	env := sampleEnvelope()
	for i := 0; i < 5; i++ {
		resp, err := eng.Call(context.Background(), env)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !resp.Equal(env) {
			t.Fatalf("call %d: response does not match request", i)
		}
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// The tentpole scenario in miniature: many concurrent in-flight calls over
// a budget of connections far smaller than the concurrency, all completing,
// with no payload leaking through the demux boundary.
func TestMuxConcurrentFewConnections(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	o := obs.New()
	// Queue sized past the whole client window so nothing sheds: this test
	// measures completion, not admission control.
	addr, _ := startServer(t, nw, echoHandler, Config{StreamCredit: 256, Queue: 2048}, core.WithObserver(o))
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(4))
	defer tr.Close()

	const workers, calls = 100, 400
	env := sampleEnvelope()
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
			for i := 0; i < calls/workers; i++ {
				resp, err := eng.Call(context.Background(), env)
				if err != nil {
					errs <- err
					return
				}
				if !resp.Equal(env) {
					errs <- errors.New("response does not match request")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := liveSessions(tr); n > 4 {
		t.Errorf("transport used %d connections, budget was 4", n)
	}
	if hw := o.GaugeHighWater(obs.MuxStreamsPerConn); hw < 2 {
		t.Errorf("streams-per-conn high water = %d, want ≥2 (no interleaving happened)", hw)
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// Overload sheds surface as classified transport errors wrapping
// ErrOverloaded, count into MuxSheds, journal an overload.shed event — and
// leave the session healthy for the calls that were admitted.
func TestMuxOverloadShedClassified(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	rec := obs.NewRecorder(obs.RecorderConfig{})
	o := obs.New(obs.WithRecorder(rec))
	gate := make(chan struct{})
	blocking := func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return req, nil
	}
	// One worker, queue of one: the third concurrent stream must shed.
	addr, _ := startServer(t, nw, blocking, Config{Workers: 1, Queue: 1, StreamCredit: 64}, core.WithObserver(o))
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	const callers = 16
	env := sampleEnvelope()
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
			_, err := eng.Call(context.Background(), env)
			results <- err
		}()
	}
	// Wait until the sheds have happened (everything not worker-held or
	// queued fails fast), then release the two admitted calls.
	var shed, ok int
	for i := 0; i < callers-2; i++ {
		err := <-results
		if err == nil {
			ok++
			continue
		}
		if !core.IsTransportError(err) {
			t.Fatalf("shed error not classified as transport error: %v", err)
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed error does not wrap ErrOverloaded: %v", err)
		}
		shed++
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted call failed after sheds: %v", err)
		}
		ok++
	}
	if shed == 0 {
		t.Fatal("no calls were shed despite Workers=1, Queue=1")
	}
	if got := o.Counter(obs.MuxSheds); got != uint64(shed) {
		t.Errorf("MuxSheds = %d, want %d", got, shed)
	}
	found := false
	for _, ev := range rec.Events(64) {
		if ev.Kind == obs.EvOverloadShed {
			found = true
		}
	}
	if !found {
		t.Error("no overload.shed event journaled")
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// Cancelling one call abandons only its stream: the binding is poisoned
// (per the taxonomy — an abandoned exchange never carries another call),
// but the session keeps serving new bindings on the same connection.
func TestMuxCancelAbandonsStreamNotSession(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	block := make(chan struct{})
	h := func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		if sel := req.Body(); sel != nil && sel.ElemName().Local == "hang" {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return req, nil
	}
	addr, _ := startServer(t, nw, h, Config{})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	hangEnv := core.NewEnvelope(bxdm.NewElement(bxdm.Name("urn:svc", "hang")))
	ctx, cancel := context.WithCancel(context.Background())
	b := tr.NewBinding()
	eng := core.NewEngine(core.BXSAEncoding{}, b)
	done := make(chan error, 1)
	go func() {
		_, err := eng.Call(ctx, hangEnv)
		done <- err
	}()
	// Let the request reach the blocked handler, then abandon it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v, want context.Canceled", err)
	}
	if !b.Poisoned() {
		t.Error("binding not poisoned after abandoning its stream")
	}
	// The session survives: a fresh binding on the same transport (same
	// single connection slot) still completes.
	env := sampleEnvelope()
	resp, err := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding()).Call(context.Background(), env)
	if err != nil {
		t.Fatalf("call after cancel failed: %v (session was poisoned by a stream-level cancel)", err)
	}
	if !resp.Equal(env) {
		t.Error("response does not match request")
	}
	if n := liveSessions(tr); n != 1 {
		t.Errorf("transport has %d sessions, want 1 (cancel must not retire the connection)", n)
	}
	close(block)
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// svcpool integration: a pool of engines whose bindings share one mux
// transport serves high pool concurrency on the transport's socket budget,
// and pool retirement of poisoned bindings never kills shared sessions.
func TestMuxSvcpoolIntegration(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	addr, _ := startServer(t, nw, echoHandler, Config{StreamCredit: 256, Queue: 512})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(2))
	defer tr.Close()
	pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *Binding], error) {
		return core.NewEngine(core.BXSAEncoding{}, tr.NewBinding()), nil
	}, svcpool.Config{MaxConns: 64, MaxInflight: 64})
	defer pool.Close()

	env := sampleEnvelope()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := pool.Call(context.Background(), env); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n := liveSessions(tr); n > 2 {
		t.Errorf("pool drove %d connections, budget was 2", n)
	}
	pool.Close()
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// The trace-header hop chain survives the demux boundary: a traced client
// call over the mux transport produces a server hop bound to the client's
// trace ID.
func TestMuxTracePropagation(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	srvRec := obs.NewRecorder(obs.RecorderConfig{})
	srvObs := obs.New(obs.WithRecorder(srvRec), obs.WithNode("srv"))
	addr, _ := startServer(t, nw, echoHandler, Config{}, core.WithObserver(srvObs))
	cliRec := obs.NewRecorder(obs.RecorderConfig{})
	cliObs := obs.New(obs.WithRecorder(cliRec), obs.WithNode("cli"))
	tr := NewTransport(nw.Dial, addr)
	defer tr.Close()
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), core.WithObserver(cliObs))
	if _, err := eng.Call(context.Background(), sampleEnvelope()); err != nil {
		t.Fatal(err)
	}
	cliTraces := cliRec.Recent(1)
	if len(cliTraces) == 0 {
		t.Fatal("client recorded no trace")
	}
	srvTraces := srvRec.Recent(4)
	if len(srvTraces) == 0 {
		t.Fatal("server recorded no trace (hop chain broken across the stream)")
	}
	if srvTraces[0].ID != cliTraces[0].ID {
		t.Errorf("server trace ID %v != client trace ID %v (wire context not propagated)",
			srvTraces[0].ID, cliTraces[0].ID)
	}
}

// A client that violates the protocol (control frames it may not send,
// duplicate stream IDs, flow-control overrun) loses the connection.
func TestMuxServerRejectsProtocolViolations(t *testing.T) {
	envBytes, err := core.NewCodec(core.BXSAEncoding{}).EncodeBytes(sampleEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	dataFrame := func(stream uint64) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writeData(bw, stream, envBytes, core.BXSAEncoding{}.ContentType())
		bw.Flush()
		return buf.Bytes()
	}
	// The handler blocks until shutdown, so admitted streams stay live and
	// the overrun/duplicate checks see them.
	blocking := func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		<-ctx.Done()
		return req, nil
	}
	run := func(t *testing.T, cfg Config, raw []byte) {
		t.Helper()
		nw := netsim.New(netsim.Profile{})
		addr, _ := startServer(t, nw, blocking, cfg)
		c, err := nw.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server must hang up; the read unblocks with EOF/reset. A
		// deadline expiry instead means the violation went unnoticed.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1<<16)
		for {
			if _, err := c.Read(buf); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatal("server did not hang up on protocol violation")
				}
				return
			}
		}
	}
	t.Run("credit from client", func(t *testing.T) {
		run(t, Config{}, []byte{magic0, magic1, version, fCredit, 0x00, 0x05})
	})
	t.Run("unassigned type 3 from client", func(t *testing.T) {
		run(t, Config{}, []byte{magic0, magic1, version, 0x03, 0x00, 0x01, 0x00})
	})
	t.Run("bad magic", func(t *testing.T) {
		run(t, Config{}, []byte{'N', 'O', version, fData, 0x01})
	})
	t.Run("duplicate stream id", func(t *testing.T) {
		raw := append(dataFrame(1), dataFrame(1)...)
		run(t, Config{StreamCredit: 8}, raw)
	})
	t.Run("flow control overrun", func(t *testing.T) {
		raw := append(dataFrame(1), dataFrame(2)...)
		raw = append(raw, dataFrame(3)...)
		run(t, Config{StreamCredit: 2, Workers: 8, Queue: 16}, raw)
	})
}

// A server that violates the protocol from the client's point of view
// (CREDIT on a data stream) fails the session with a classified error.
func TestMuxClientRejectsBadServer(t *testing.T) {
	nw := netsim.New(netsim.Profile{})
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// CREDIT on stream 7: malformed.
		c.Write([]byte{magic0, magic1, version, fCredit, 0x07, 0x05})
	}()
	tr := NewTransport(nw.Dial, l.Addr().String(), WithMaxSessions(1))
	defer tr.Close()
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
	_, err = eng.Call(context.Background(), sampleEnvelope())
	if err == nil {
		t.Fatal("call against protocol-violating server succeeded")
	}
	if !core.IsTransportError(err) {
		t.Errorf("session failure not classified: %v", err)
	}
}

// liveSessions reports how many connections the transport holds open, for
// tests asserting the socket budget.
func liveSessions(t *Transport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sessions {
		if s != nil && !s.dead() {
			n++
		}
	}
	return n
}
