package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// timedSink times the binding's share of an interleaved encode+send: the
// codec calls WriteChunk from inside EncodeChunks, so what is spent here is
// the binding's, and the rest of EncodeChunks is the codec's self time.
type timedSink struct {
	sink  core.ChunkSink
	t     *tracer
	call  int64
	name  string
	spent time.Duration
}

func (s *timedSink) WriteChunk(p *core.Payload, last bool) error {
	start := time.Now()
	err := s.sink.WriteChunk(p, last)
	end := time.Now()
	s.spent += end.Sub(start)
	s.t.keep(s.call, s.name, "core.client_encode", start, end)
	return err
}

func (s *timedSink) Abort() { s.sink.Abort() }

// step drives one exchange through the same public calls Engine.Call makes,
// in the same order, with a span around each, and returns the reply and the
// time its parts cover.
func (l *layers) step(ctx context.Context, t *tracer, id int64, m *message) (*core.Envelope, time.Duration, error) {
	send, wait := l.binding+".send", l.binding+".wait"
	t.call.Store(id)
	if l.streamed {
		sb, ok := l.bind.(core.StreamBinding)
		if !ok {
			return nil, 0, fmt.Errorf("%s does not stream", l.binding)
		}
		t0 := time.Now()
		sink, err := sb.SendRequestStream(ctx, l.contentType)
		if err != nil {
			return nil, 0, err
		}
		ts := &timedSink{sink: sink, t: t, call: id, name: send}
		if err := l.encodeChunks(m.env, ts); err != nil {
			sink.Abort()
			return nil, 0, err
		}
		t1 := time.Now()
		src, _, err := sb.ReceiveResponseStream(ctx)
		if err != nil {
			return nil, 0, err
		}
		t2 := time.Now()
		resp, err := l.decodeChunks(src)
		if err != nil {
			src.Abort()
			return nil, 0, err
		}
		t3 := time.Now()
		t.keep(id, "core.client_encode", "call", t0, t1)
		t.observe("core.client_encode", t1.Sub(t0)-ts.spent)
		t.observe(send, ts.spent)
		t.span(id, wait, "call", t1, t2)
		t.observe(l.binding+".first_byte", t2.Sub(t0))
		t.span(id, "core.client_decode", "call", t2, t3)
		return resp, t3.Sub(t0), nil
	}
	t0 := time.Now()
	p, err := l.encode(m.env)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	err = l.bind.SendRequest(ctx, p, l.contentType)
	p.Release()
	if err != nil {
		return nil, 0, err
	}
	t2 := time.Now()
	rp, _, err := l.bind.ReceiveResponse(ctx)
	if err != nil {
		return nil, 0, err
	}
	t3 := time.Now()
	resp, err := l.decode(rp)
	rp.Release()
	if err != nil {
		return nil, 0, err
	}
	t4 := time.Now()
	t.span(id, "core.client_encode", "call", t0, t1)
	t.span(id, send, "call", t1, t2)
	t.span(id, wait, "call", t2, t3)
	t.span(id, "core.client_decode", "call", t3, t4)
	return resp, t4.Sub(t0), nil
}

// runStepped is the stepped client's closed loop: one caller for d. A call
// span runs from the end of the previous call to the end of this one, so
// what its parts do not cover — verification and the tracer's own
// bookkeeping — is measured as unattributed time.
func runStepped(t *tracer, l *layers, msgs []*message, d time.Duration) (*callStats, error) {
	ctx := context.Background()
	t.setHandlerParent(l.serverRunsIn)
	st := new(callStats)
	last := time.Now()
	deadline := last.Add(d)
	for i := 0; ; i++ {
		m := msgs[i%len(msgs)]
		id := int64(i)
		resp, covered, err := l.step(ctx, t, id, m)
		if err == nil {
			err = m.verify(resp)
		}
		if err != nil {
			// The stepped client has no retry layer: a failure leaves the
			// binding poisoned, so the pass stops here.
			return nil, fmt.Errorf("stepped call %d: %w", i, err)
		}
		now := time.Now()
		t.span(id, "call", "", last, now)
		t.observe("unattributed", now.Sub(last)-covered)
		st.lat.record(int64(now.Sub(last)))
		st.attempted++
		last = now
		if now.After(deadline) {
			return st, nil
		}
	}
}

// unattributedLimit is the share of a stepped call, and of the engine's
// call over the stepped one, above which the traced pass flags the run.
const unattributedLimit = 15.0

func pct(part, whole float64) float64 { return 100 * part / whole }

// observedWindow measures the main pass's call path for d with the program's
// own observers attached (and the flight recorder when record is set). It
// returns the window, the observers, and how much each client-side counter
// grew during the window.
func observedWindow(w *workload, cfg config, msgs []*message, d time.Duration, record bool) (window, observers, func(obs.CounterID) float64, error) {
	var rec *obs.Recorder
	if record {
		rec = obs.NewRecorder(obs.RecorderConfig{})
	}
	o := observers{
		client: obs.New(obs.WithNode("client"), obs.WithRecorder(rec)),
		server: obs.New(obs.WithNode("server"), obs.WithRecorder(rec)),
	}
	core.SetPayloadObserver(o.client)
	defer core.SetPayloadObserver(nil)
	r, _, err := setupWarm(w, cfg, msgs, handle, o)
	if err != nil {
		return window{}, o, nil, err
	}
	before := o.client.Snapshot().Counters
	win := measureWindow(r, r.call, msgs, w.callers, d)
	after := o.client.Snapshot().Counters
	if err := teardown(r); err != nil {
		return window{}, o, nil, err
	}
	if win.ok() == 0 {
		return window{}, o, nil, fmt.Errorf("observed pass: no call succeeded: %w", win.firstErr)
	}
	count := func(c obs.CounterID) float64 { return float64(after[c.String()] - before[c.String()]) }
	return win, o, count, nil
}

// tracedPass produces the per-layer metrics of one workload: an untraced
// baseline, the in-memory ladder, the stepped client, and two passes with
// the program's own observer attached.
func tracedPass(w *workload, cfg config, outDir string) (*passResult, error) {
	msgs := genMessages(cfg.seed, w.name, w.shapes)
	res := &passResult{metrics: make(map[string]float64)}
	out := res.metrics
	account := func(st *callStats) {
		res.attempted += st.attempted
		res.failed += st.failed
		if res.firstErr == nil {
			res.firstErr = st.firstErr
		}
	}

	// Ladder and stepped client share one rig whose handler is traced.
	share := cfg.window / 10
	t := newTracer()
	t.setHandlerParent("core.dispatch")
	r, _, err := setupWarm(w, cfg, msgs, t.handler(), observers{})
	if err != nil {
		return nil, err
	}
	l := &r.layers
	rungs, err := prepare(w, l, msgs)
	if err == nil {
		iters := w.ladderIters
		if cfg.ladderIters > 0 {
			iters = cfg.ladderIters
		}
		err = runLadder(t, w, l, rungs, iters, out)
	}
	var encodedLen int
	for _, g := range rungs {
		encodedLen += g.wireLen
	}
	// The prepared forms of a 4 MB message are tens of megabytes of live
	// heap, which would space the stepped client's GC cycles further apart
	// than the engine's in the baseline.
	rungs = nil
	runtime.GC()
	var stepped *callStats
	if err == nil {
		t.take("core.handler") // the ladder's handler spans are reported; start the stepped median afresh
		stepped, err = runStepped(t, l, msgs, 2*share)
	}
	if cerr := teardown(r); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	account(stepped)

	// Baseline: the main pass's shape, observers nil, for the counts that
	// need no observer and the latencies the other phases are compared with.
	// It runs between the phases it is compared with, in a process the
	// ladder has already warmed: the first seconds of a fresh process pay
	// for every heap page they touch, which on bulk-stream is 10% of a call.
	if r, _, err = setupWarm(w, cfg, msgs, handle, observers{}); err != nil {
		return nil, err
	}
	base := measureWindow(r, r.call, msgs, w.callers, 3*share)
	account(base.callStats)
	engineP50 := base.p(0.50)
	if r.poolStats != nil {
		// One caller through the pool, then one caller on a bare engine: the
		// difference is what checkout and retry bookkeeping cost a call.
		pool1 := measureWindow(r, r.call, msgs, 1, share/2)
		eng1 := measureWindow(r, r.engineCall, msgs, 1, share/2)
		account(pool1.callStats)
		account(eng1.callStats)
		engineP50 = eng1.p(0.50)
		ps := r.poolStats()
		out["svcpool.reuse_ratio"] = float64(ps.Reuses) / float64(ps.Reuses+ps.Dials)
		out["svcpool.retries"] = float64(ps.Retries)
		out["svcpool.overhead_us"] = pool1.p(0.50) - engineP50
	}
	if err := teardown(r); err != nil {
		return nil, err
	}
	if base.ok() == 0 {
		return nil, fmt.Errorf("baseline: no call succeeded: %w", base.firstErr)
	}
	out["driver.call_p99_us"] = base.p(0.99)
	out["driver.samples"] = float64(base.lat.n)

	b := l.binding
	calls := float64(base.ok())
	out[b+".writes_per_call"] = float64(base.client.writes+base.server.writes) / calls
	out[b+".turnarounds_per_call"] = float64(base.client.turnarounds) / calls
	out[b+".frame_overhead_bytes"] = base.wirePerCall() - float64(encodedLen)/float64(len(msgs))

	total := t.take("call") / 1e3
	wait := t.take(b+".wait") / 1e3
	out["core.client_encode_us"] = t.take("core.client_encode") / 1e3
	out[b+".send_us"] = t.take(b+".send") / 1e3
	out[b+".wait_us"] = wait
	out["core.client_decode_us"] = t.take("core.client_decode") / 1e3
	// transport is what the exchange spends outside both codecs beyond the
	// server's own in-memory dispatch: framing, syscalls, scheduler hand-off.
	// Where the server's work falls differs by binding (httpbind's
	// SendRequest returns with the response headers), so it is taken from
	// send and wait together. A streamed server decodes while the client is
	// still encoding, so there it is taken from the whole time to the first
	// response byte.
	dispatch := out["core.dispatch_ns"] / 1e3
	if l.streamed {
		out[b+".first_byte_us"] = t.take(b+".first_byte") / 1e3
		out[b+".transport_us"] = out[b+".first_byte_us"] - dispatch
	} else {
		out[b+".transport_us"] = out[b+".send_us"] + wait - dispatch
	}
	out["driver.unattributed_pct"] = pct(t.take("unattributed")/1e3, total)
	out["driver.engine_over_stepped_pct"] = pct(engineP50-total, total)
	res.notes = append(res.notes, fmt.Sprintf(
		"stepped call p50 %.2f us over %d calls (handler %.2f us inside %s); engine call p50 %.2f us at one caller",
		total, stepped.attempted, t.take("core.handler")/1e3, l.serverRunsIn, engineP50))
	for _, name := range []string{"driver.unattributed_pct", "driver.engine_over_stepped_pct"} {
		if math.Abs(out[name]) > unattributedLimit {
			res.notes = append(res.notes, fmt.Sprintf("FLAG %s = %.1f%% exceeds %.0f%%", name, out[name], unattributedLimit))
		}
	}

	// The program's own observer, attached only here: first metrics alone,
	// then metrics plus the flight recorder. Their mean call time against
	// the baseline's is what the instrument costs (the mean, because
	// bulk-stream's latency is bimodal around GC cycles and a short window's
	// median jumps modes).
	plain, o, count, err := observedWindow(w, cfg, msgs, 2*share, false)
	if err != nil {
		return nil, err
	}
	account(plain.callStats)
	out["obs.metrics_overhead_pct"] = pct(plain.meanCall()-base.meanCall(), base.meanCall())
	n := float64(plain.ok())
	if hm := count(obs.TemplateHits) + count(obs.TemplateMisses); hm > 0 {
		out["core.plan_hit_ratio"] = count(obs.TemplateHits) / hm
	}
	out["core.plan_compiles_per_call"] = count(obs.TemplateCompiles) / n
	out["core.plan_evictions_per_call"] = count(obs.TemplateEvictions) / n
	out["core.payload_pool_hit_ratio"] = count(obs.PayloadPoolHits) / (count(obs.PayloadPoolHits) + count(obs.PayloadPoolMisses))
	out["core.payloads_in_use_peak"] = float64(o.client.GaugeHighWater(obs.PayloadsInUse))
	out["core.stream_chunks_per_call"] = (count(obs.StreamChunksSent) + count(obs.StreamChunksReceived)) / n
	if b == "muxbind" {
		out["muxbind.streams_per_conn_peak"] = float64(o.client.GaugeHighWater(obs.MuxStreamsPerConn))
		out["muxbind.sheds"] = float64(o.server.Counter(obs.MuxSheds))
		out["muxbind.resets"] = float64(o.client.Counter(obs.MuxResets) + o.server.Counter(obs.MuxResets))
	}
	recorded, _, _, err := observedWindow(w, cfg, msgs, 2*share, true)
	if err != nil {
		return nil, err
	}
	account(recorded.callStats)
	out["obs.tracing_overhead_pct"] = pct(recorded.meanCall()-base.meanCall(), base.meanCall())
	out["obs.tracing_allocs_per_call"] = recorded.allocsPerCall() - base.allocsPerCall()

	path, err := t.write(outDir, w.name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(t.spans), path))
	return res, nil
}
