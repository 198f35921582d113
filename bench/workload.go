package main

import (
	"context"
	"fmt"
	"net"

	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/obs"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
	"bxsoap/internal/wssec"
)

const (
	planCapacity = 16       // core.WithTemplates on both sides
	chunkBytes   = 64 << 10 // core.WithStreaming on both sides
	muxSessions  = 2        // muxbind.WithMaxSessions: no more connections than the reference box has cores
	muxCallers   = 16       // goroutine callers, svcpool MaxConns and MaxInflight
)

var hmacKey = []byte("bxsoap-bench-hmac-key")

// workload is one named composition of encoding, binding and options with
// its message set and caller count.
type workload struct {
	name        string
	composition string
	callers     int
	conns       int
	// xml, templates and signed say which layers the composition executes,
	// and so which ladder rows apply.
	xml, templates, signed bool
	// shapes lists the pair counts of the message cycle before the seed
	// shuffles it.
	shapes []int
	// warmCalls is the fixed number of calls made after two passes over the
	// message set and before the measured window; it is work, not a timer,
	// so setup_s moves when set-up gets more expensive.
	warmCalls int
	// ladderIters is the timed iteration count of each in-memory ladder row.
	ladderIters int
	setup       func(h core.Handler, o observers) (*rig, error)
}

// observers are the sinks the traced pass attaches; both are nil in the
// main pass, which keeps every layer on its nil-sink path.
type observers struct{ client, server *obs.Observer }

func churnShapes() []int {
	s := make([]int, 64)
	for i := range s {
		s[i] = 16 + i
	}
	return s
}

var workloads = []workload{
	{
		name:        "rpc-small",
		composition: "BXSAEncoding x tcpbind, WithTemplates(16) both sides, Engine.Call",
		callers:     1, conns: 1, shapes: []int{8}, warmCalls: 20000, ladderIters: 200, templates: true,
		setup: func(h core.Handler, o observers) (*rig, error) {
			return setupTCP(core.BXSAEncoding{}, h, o, core.WithTemplates(planCapacity))
		},
	},
	{
		name:        "xml-array",
		composition: "XMLEncoding x httpbind, generic codec, Engine.Call",
		callers:     1, conns: 1, shapes: []int{1000}, warmCalls: 800, ladderIters: 200, xml: true,
		setup: setupHTTP,
	},
	{
		name:        "bulk-stream",
		composition: "wssec.Secure(BXSAEncoding) x tcpbind, WithStreaming(64 KiB) both sides, Engine.CallStream",
		callers:     1, conns: 1, shapes: []int{349440}, warmCalls: 16, ladderIters: 30, signed: true,
		setup: func(h core.Handler, o observers) (*rig, error) {
			return setupTCP(wssec.Secure(core.BXSAEncoding{}, hmacKey), h, o, core.WithStreaming(chunkBytes))
		},
	},
	{
		name:        "shape-churn",
		composition: "XMLEncoding x tcpbind, WithTemplates(16) both sides, 64 shapes, Engine.Call",
		callers:     1, conns: 1, shapes: churnShapes(), warmCalls: 2560, ladderIters: 200, xml: true, templates: true,
		setup: func(h core.Handler, o observers) (*rig, error) {
			return setupTCP(core.XMLEncoding{}, h, o, core.WithTemplates(planCapacity))
		},
	},
	{
		name:        "mux-fanin",
		composition: "BXSAEncoding x muxbind (2 sessions, default Config), WithTemplates(16), svcpool(16/16).Call",
		callers:     muxCallers, conns: muxSessions, shapes: []int{100}, warmCalls: 20000, ladderIters: 200, templates: true,
		setup: setupMux,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rig is one set-up workload: a live in-process server, the client the
// callers use, and the type-erased entry points the traced pass drives.
type rig struct {
	// call is what each of the workload's callers invokes.
	call func(context.Context, *core.Envelope) (*core.Envelope, error)
	// engineCall bypasses the pool on mux-fanin (one engine, one stream at
	// a time); elsewhere it is call.
	engineCall func(context.Context, *core.Envelope) (*core.Envelope, error)
	layers     layers
	poolStats  func() svcpool.Stats // nil unless the workload is pooled
	client     *wireStats
	server     *wireStats
	closers    []func() error
}

func (r *rig) close() error {
	var first error
	for _, c := range r.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// listen binds an unshaped loopback listener whose connections are counted.
func listen(s *wireStats) (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return countListener{Listener: l, stats: s}, nil
}

func setupTCP[E core.Encoding](enc E, h core.Handler, o observers, opt core.Option) (*rig, error) {
	r := &rig{client: new(wireStats), server: new(wireStats)}
	l, err := listen(r.server)
	if err != nil {
		return nil, err
	}
	srv := core.NewServer(enc, tcpbind.NewListener(l, tcpbind.WithObserver(o.server)), h, opt, core.WithObserver(o.server))
	go srv.Serve()
	bind := tcpbind.New(countDialer(r.client), l.Addr().String(), tcpbind.WithObserver(o.client))
	eng := core.NewEngine(enc, bind, opt, core.WithObserver(o.client))
	r.call = eng.Call
	if eng.Streaming() > 0 {
		r.call = eng.CallStream
	}
	r.engineCall = r.call
	r.layers = newLayers("tcpbind", eng, srv.Dispatcher())
	r.closers = []func() error{eng.Close, srv.Close}
	return r, nil
}

func setupHTTP(h core.Handler, o observers) (*rig, error) {
	r := &rig{client: new(wireStats), server: new(wireStats)}
	l, err := listen(r.server)
	if err != nil {
		return nil, err
	}
	enc := core.XMLEncoding{}
	hl := httpbind.NewListener(l, httpbind.WithObserver(o.server))
	srv := core.NewServer(enc, hl, h, core.WithObserver(o.server))
	go srv.Serve()
	bind := httpbind.New(countDialer(r.client), hl.URL(), httpbind.WithObserver(o.client))
	eng := core.NewEngine(enc, bind, core.WithObserver(o.client))
	r.call, r.engineCall = eng.Call, eng.Call
	r.layers = newLayers("httpbind", eng, srv.Dispatcher())
	r.closers = []func() error{eng.Close, srv.Close}
	return r, nil
}

func setupMux(h core.Handler, o observers) (*rig, error) {
	r := &rig{client: new(wireStats), server: new(wireStats)}
	l, err := listen(r.server)
	if err != nil {
		return nil, err
	}
	enc := core.BXSAEncoding{}
	srv := muxbind.NewServer(enc, h, muxbind.Config{}, core.WithTemplates(planCapacity), core.WithObserver(o.server))
	go srv.Serve(l)
	tr := muxbind.NewTransport(countDialer(r.client), l.Addr().String(),
		muxbind.WithMaxSessions(muxSessions), muxbind.WithObserver(o.client))
	newEngine := func() *core.Engine[core.BXSAEncoding, *muxbind.Binding] {
		return core.NewEngine(enc, tr.NewBinding(), core.WithTemplates(planCapacity), core.WithObserver(o.client))
	}
	pool := svcpool.New(func(context.Context) (*core.Engine[core.BXSAEncoding, *muxbind.Binding], error) {
		return newEngine(), nil
	}, svcpool.Config{MaxConns: muxCallers, MaxInflight: muxCallers}, svcpool.WithObserver(o.client))
	single := newEngine()
	r.call, r.engineCall = pool.Call, single.Call
	r.poolStats = pool.Stats
	r.layers = newLayers("muxbind", single, srv.Dispatcher())
	r.closers = []func() error{pool.Close, single.Close, tr.Close, srv.Close}
	return r, nil
}
