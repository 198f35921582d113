package muxbind

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
)

// bigArrayEnvelope builds a request whose body is a packed int32 array
// large enough to span many chunks at small windows.
func bigArrayEnvelope(n int) (*core.Envelope, bxdm.Node) {
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i * 3)
	}
	el := bxdm.NewArray(bxdm.QName{Local: "a"}, items)
	return core.NewEnvelope(el), el
}

// TestMuxStreamedExchange runs the fallback matrix over the mux: both sides
// chunking, and each side alone against a buffered peer. Every combination
// must round-trip the same tree, and no payload may leak through the demux
// boundary.
func TestMuxStreamedExchange(t *testing.T) {
	stream := core.WithStreaming(32 << 10)
	cases := []struct {
		name    string
		cfg     Config
		engOpts []core.EngineOption
	}{
		{"both streamed", Config{ChunkBytes: 32 << 10}, []core.EngineOption{stream}},
		{"client streamed, server buffered response", Config{}, []core.EngineOption{stream}},
		{"client buffered, server chunk-capable", Config{ChunkBytes: 32 << 10}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := core.PayloadsInUse()
			nw := netsim.New(netsim.Profile{})
			addr, _ := startServer(t, nw, echoHandler, tc.cfg)
			tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
			defer tr.Close()
			eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), tc.engOpts...)
			defer eng.Close()
			req, want := bigArrayEnvelope(200_000) // ~800 KiB of array data
			for i := 0; i < 2; i++ {               // second call checks stream framing resyncs
				resp, err := eng.Call(context.Background(), req)
				if err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				if !bxdm.Equal(resp.Body(), want) {
					t.Fatalf("call %d: echoed body differs", i)
				}
			}
			tr.Close()
			waitPayloadsSettled(t, baseline)
		})
	}
}

// TestMuxStreamedInterleaving drives streamed and buffered calls
// concurrently over one shared connection: chunk frames from large messages
// must interleave with small DATA exchanges without corrupting either.
func TestMuxStreamedInterleaving(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	addr, _ := startServer(t, nw, echoHandler, Config{ChunkBytes: 16 << 10, Queue: 2048, StreamCredit: 256})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		streamed := w%2 == 0
		go func() {
			defer wg.Done()
			var opts []core.EngineOption
			n := 500
			if streamed {
				opts = append(opts, core.WithStreaming(16<<10))
				n = 100_000
			}
			eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), opts...)
			defer eng.Close()
			req, want := bigArrayEnvelope(n)
			for i := 0; i < 4; i++ {
				resp, err := eng.Call(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !bxdm.Equal(resp.Body(), want) {
					errs <- errors.New("echoed body differs")
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
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// TestMuxStreamedFaultAfterBadRequest checks the decode-failure path over
// the mux: a chunked request the server cannot decode draws a fault, and
// the shared session survives to carry the next exchange.
func TestMuxStreamedFaultAfterBadRequest(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	addr, _ := startServer(t, nw, echoHandler, Config{ChunkBytes: 16 << 10})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	b := tr.NewBinding()
	sink, err := b.SendRequestStream(context.Background(), "application/x-bxsa")
	if err != nil {
		t.Fatal(err)
	}
	junk := core.NewPayloadFrom([]byte("this is not a bxsa frame"))
	if err := sink.WriteChunk(junk, true); err != nil {
		t.Fatal(err)
	}
	src, _, err := b.ReceiveResponseStream(context.Background())
	if err != nil {
		t.Fatalf("no response to bad request: %v", err)
	}
	p, err := core.GatherChunks(src)
	if err != nil {
		t.Fatalf("gather fault: %v", err)
	}
	env, err := core.NewCodec(core.BXSAEncoding{}).DecodePayload(p)
	p.Release()
	if err != nil {
		t.Fatalf("decode fault: %v", err)
	}
	if f := core.FaultFromEnvelope(env); f == nil {
		t.Fatal("bad request did not draw a fault")
	}
	b.Close()

	// The session underneath must still carry a fresh exchange.
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), core.WithStreaming(16<<10))
	defer eng.Close()
	req, want := bigArrayEnvelope(50_000)
	resp, err := eng.Call(context.Background(), req)
	if err != nil {
		t.Fatalf("call after fault: %v", err)
	}
	if !bxdm.Equal(resp.Body(), want) {
		t.Fatal("echoed body differs after fault")
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// TestMuxStreamedCancelAbandonsStream mirrors the buffered cancellation
// test: cancelling mid-streamed-exchange poisons only that binding, the
// shared session keeps serving others.
func TestMuxStreamedCancelAbandonsStream(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	block := make(chan struct{})
	addr, _ := startServer(t, nw, func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return req, nil
	}, Config{ChunkBytes: 16 << 10})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	b := tr.NewBinding()
	sink, err := b.SendRequestStream(context.Background(), "application/x-bxsa")
	if err != nil {
		t.Fatal(err)
	}
	req, _ := bigArrayEnvelope(50_000)
	if err := core.NewCodec(core.BXSAEncoding{}).EncodeChunks(req, 16<<10, sink); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.ReceiveResponseStream(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled receive: got %v, want context.Canceled", err)
	}
	if !b.Poisoned() {
		t.Fatal("cancelled binding not poisoned")
	}
	close(block)

	// Shared session survives the abandoned stream.
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), core.WithStreaming(16<<10))
	defer eng.Close()
	req2, want := bigArrayEnvelope(50_000)
	resp, err := eng.Call(context.Background(), req2)
	if err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if !bxdm.Equal(resp.Body(), want) {
		t.Fatal("echoed body differs after cancel")
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// TestMuxStreamedWindowShedResets: a streamed request that overruns the
// server's receive window while every worker is busy is shed mid-message,
// and the shed must reach the client as RST(overload) — a classified
// ErrOverloaded well before the caller's deadline, not a silent stall.
func TestMuxStreamedWindowShedResets(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Profile{})
	o := obs.New()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	hold := func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return req, nil
	}
	addr, _ := startServer(t, nw, hold, Config{Workers: 1}, core.WithObserver(o))
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(1))
	defer tr.Close()

	// Occupy the only worker.
	held := make(chan error, 1)
	go func() {
		_, err := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding()).Call(context.Background(), sampleEnvelope())
		held <- err
	}()
	<-entered

	// Release the worker as soon as the streamed call has been shed, so
	// only a missing reset can leave the caller waiting.
	go func() {
		for o.Counter(obs.MuxSheds) == 0 {
			time.Sleep(time.Millisecond)
		}
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), core.WithStreaming(1024))
	req, _ := bigArrayEnvelope(400_000) // ~98 chunks against a 32-chunk window
	_, err := eng.CallStream(ctx, req)
	if !errors.Is(err, ErrOverloaded) || !core.IsTransportError(err) {
		t.Fatalf("shed streamed call returned %v, want a transport error wrapping ErrOverloaded", err)
	}
	if err := <-held; err != nil {
		t.Fatalf("held call: %v", err)
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}
