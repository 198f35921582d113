package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/obs"
	"bxsoap/internal/tcpbind"
)

// startObservedServer runs a BXSA/TCP server wired to its own observer and
// returns it with a factory for observed client engines.
func startObservedServer(t *testing.T, h core.Handler, opts ...core.ServerOption) (*core.Server[core.BXSAEncoding, *tcpbind.Listener], *obs.Observer) {
	t.Helper()
	srvObs := obs.New()
	l, err := tcpbind.Listen("127.0.0.1:0", tcpbind.WithObserver(srvObs))
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(core.BXSAEncoding{}, l, h,
		append([]core.ServerOption{core.WithObserver(srvObs)}, opts...)...)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, srvObs
}

// observedCall starts an E server over the named binding ("tcp" or "http")
// with srvObs wired into the server and its listener, and returns the Call
// of an engine whose engine and binding record into cliObs.
func observedCall[E core.Encoding](t *testing.T, binding string, h core.Handler, srvObs, cliObs *obs.Observer) func(context.Context, *core.Envelope) (*core.Envelope, error) {
	t.Helper()
	var enc E
	switch binding {
	case "tcp":
		l, err := tcpbind.Listen("127.0.0.1:0", tcpbind.WithObserver(srvObs))
		if err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(enc, l, h, core.WithObserver(srvObs))
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		eng := core.NewEngine(enc,
			tcpbind.New(tcpbind.NetDialer, srv.Addr().String(), tcpbind.WithObserver(cliObs)),
			core.WithObserver(cliObs))
		t.Cleanup(func() { eng.Close() })
		return eng.Call
	case "http":
		hl, err := httpbind.Listen("127.0.0.1:0", httpbind.WithObserver(srvObs))
		if err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(enc, hl, h, core.WithObserver(srvObs))
		go srv.Serve()
		t.Cleanup(func() { srv.Close() })
		eng := core.NewEngine(enc,
			httpbind.New(nil, hl.URL(), httpbind.WithObserver(cliObs)),
			core.WithObserver(cliObs))
		t.Cleanup(func() { eng.Close() })
		return eng.Call
	}
	t.Fatalf("unknown binding %q", binding)
	return nil
}

func TestObservedCallRecordsStagesAndCounters(t *testing.T) {
	h := func(_ context.Context, _ *core.Envelope) (*core.Envelope, error) {
		return core.NewEnvelope(bxdm.NewLeaf(bxdm.LocalName("ok"), int32(1))), nil
	}
	for _, tc := range []struct {
		name    string
		start   func(*testing.T, string, core.Handler, *obs.Observer, *obs.Observer) func(context.Context, *core.Envelope) (*core.Envelope, error)
		binding string
	}{
		{"BXSA/tcp", observedCall[core.BXSAEncoding], "tcp"},
		{"XML/tcp", observedCall[core.XMLEncoding], "tcp"},
		{"BXSA/http", observedCall[core.BXSAEncoding], "http"},
		{"XML/http", observedCall[core.XMLEncoding], "http"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvObs, cliObs := obs.New(), obs.New()
			call := tc.start(t, tc.binding, h, srvObs, cliObs)

			const calls = 5
			for i := 0; i < calls; i++ {
				if _, err := call(context.Background(), core.NewEnvelope()); err != nil {
					t.Fatal(err)
				}
			}

			// Client side: the full stage sequence once per call, balanced
			// counters, and codec stages that took measurable time.
			for _, st := range []obs.Stage{obs.ClientEncode, obs.ClientSend, obs.ClientWait, obs.ClientDecode} {
				if got := cliObs.StageSnapshot(st).Count; got != calls {
					t.Errorf("client stage %v count = %d, want %d", st, got, calls)
				}
			}
			for _, st := range []obs.Stage{obs.ClientEncode, obs.ClientDecode} {
				if m := cliObs.StageSnapshot(st).Mean(); m <= 0 {
					t.Errorf("client stage %v mean = %v, want > 0", st, m)
				}
			}
			if s, c, f := cliObs.Counter(obs.CallsStarted), cliObs.Counter(obs.CallsCompleted), cliObs.Counter(obs.CallsFailed); s != calls || c != calls || f != 0 {
				t.Errorf("client counters started/completed/failed = %d/%d/%d, want %d/%d/0", s, c, f, calls, calls)
			}
			if got := cliObs.Counter(obs.MessagesSent); got != calls {
				t.Errorf("client binding sent %d messages, want %d", got, calls)
			}
			if cliObs.Counter(obs.BytesSent) == 0 || cliObs.Counter(obs.BytesReceived) == 0 {
				t.Error("client binding byte counters did not move")
			}

			// Server side: requests counted, handler and codec stages
			// populated. The server marks ServerSend after the response is
			// on the wire, so the client can return before the last call's
			// mark lands: wait for it, within a bound.
			for deadline := time.Now().Add(2 * time.Second); srvObs.StageSnapshot(obs.ServerSend).Count < calls && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := srvObs.Counter(obs.ServerRequests); got != calls {
				t.Errorf("server requests = %d, want %d", got, calls)
			}
			if got := srvObs.Counter(obs.ServerFaults); got != 0 {
				t.Errorf("server faults = %d, want 0", got)
			}
			for _, st := range []obs.Stage{obs.ServerReceive, obs.ServerDecode, obs.ServerHandler, obs.ServerEncode, obs.ServerSend} {
				if got := srvObs.StageSnapshot(st).Count; got != calls {
					t.Errorf("server stage %v count = %d, want %d", st, got, calls)
				}
			}
			for _, st := range []obs.Stage{obs.ServerDecode, obs.ServerEncode} {
				if m := srvObs.StageSnapshot(st).Mean(); m <= 0 {
					t.Errorf("server stage %v mean = %v, want > 0", st, m)
				}
			}
		})
	}
}

// Span ordering on the fault path: a handler error still yields the full,
// ordered client stage sequence, and the fault counts as a COMPLETED call
// (the transport demonstrably worked) plus a ClientFaults tick.
func TestSpanOrderingOnFaultPath(t *testing.T) {
	srv, srvObs := startObservedServer(t, func(_ context.Context, _ *core.Envelope) (*core.Envelope, error) {
		return nil, errors.New("handler refuses")
	})
	rec := obs.NewRecorder(obs.RecorderConfig{})
	cliObs := obs.New(obs.WithRecorder(rec))
	eng := core.NewEngine(core.BXSAEncoding{},
		tcpbind.New(tcpbind.NetDialer, srv.Addr().String()),
		core.WithObserver(cliObs))
	defer eng.Close()

	_, err := eng.Call(context.Background(), core.NewEnvelope())
	var f *core.Fault
	if !errors.As(err, &f) || f.Code != core.FaultServer {
		t.Fatalf("err = %v, want server fault", err)
	}

	want := []obs.Stage{obs.ClientEncode, obs.ClientSend, obs.ClientWait, obs.ClientDecode}
	trees := rec.Recent(1)
	if len(trees) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(trees))
	}
	var order []obs.Stage
	for _, sp := range trees[0].Root.Stages {
		order = append(order, sp.Stage)
	}
	if len(order) != len(want) {
		t.Fatalf("traced stages %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stage %d = %v, want %v (full trace %v)", i, order[i], want[i], order)
		}
	}
	if c, fl, cf := cliObs.Counter(obs.CallsCompleted), cliObs.Counter(obs.CallsFailed), cliObs.Counter(obs.ClientFaults); c != 1 || fl != 0 || cf != 1 {
		t.Errorf("completed/failed/faults = %d/%d/%d, want 1/0/1", c, fl, cf)
	}
	if got := srvObs.Counter(obs.ServerFaults); got != 1 {
		t.Errorf("server faults = %d, want 1", got)
	}
}

// Counters balance on the hard-failure path: no peer, so the call fails —
// started == completed + failed still holds.
func TestCountersBalanceOnTransportFailure(t *testing.T) {
	o := obs.New()
	eng := core.NewEngine(core.BXSAEncoding{},
		tcpbind.New(tcpbind.NetDialer, "127.0.0.1:1"), // nothing listens here
		core.WithObserver(o))
	defer eng.Close()
	if _, err := eng.Call(context.Background(), core.NewEnvelope()); err == nil {
		t.Fatal("call to dead address succeeded")
	}
	started := o.Counter(obs.CallsStarted)
	if started == 0 || started != o.Counter(obs.CallsCompleted)+o.Counter(obs.CallsFailed) {
		t.Errorf("started %d != completed %d + failed %d",
			started, o.Counter(obs.CallsCompleted), o.Counter(obs.CallsFailed))
	}
}

// Close must cancel the context handlers run under: a handler parked on
// ctx.Done() unblocks when the server shuts down instead of leaking.
func TestCloseCancelsHandlerContext(t *testing.T) {
	entered := make(chan struct{})
	cancelled := make(chan error, 1)
	srv, _ := startObservedServer(t, func(ctx context.Context, _ *core.Envelope) (*core.Envelope, error) {
		close(entered)
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
		case <-time.After(5 * time.Second):
			cancelled <- nil
		}
		return core.NewEnvelope(), nil
	})
	eng := core.NewEngine(core.BXSAEncoding{}, tcpbind.New(tcpbind.NetDialer, srv.Addr().String()))
	defer eng.Close()
	go eng.Call(context.Background(), core.NewEnvelope())

	<-entered
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case err := <-cancelled:
		if err == nil {
			t.Fatal("handler context not cancelled by Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked after Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

// Payload pool instrumentation: checkout hit/miss counters move and the
// in-use gauge balances back to zero with a high-water mark left behind.
func TestPayloadPoolObserver(t *testing.T) {
	o := obs.New()
	core.SetPayloadObserver(o)
	defer core.SetPayloadObserver(nil)

	const n = 3
	payloads := make([]*core.Payload, n)
	for i := range payloads {
		payloads[i] = core.NewPayload(512)
	}
	if got := o.Gauge(obs.PayloadsInUse); got != n {
		t.Errorf("in-use gauge = %d, want %d", got, n)
	}
	for _, p := range payloads {
		p.Release()
	}
	if got := o.Gauge(obs.PayloadsInUse); got != 0 {
		t.Errorf("in-use gauge after release = %d, want 0", got)
	}
	if got := o.GaugeHighWater(obs.PayloadsInUse); got < n {
		t.Errorf("in-use high water = %d, want ≥ %d", got, n)
	}
	if got := o.Counter(obs.PayloadPoolHits) + o.Counter(obs.PayloadPoolMisses); got != n {
		t.Errorf("hits+misses = %d, want %d", got, n)
	}
}
