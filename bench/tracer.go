package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bxsoap/internal/core"
)

// span is one timed interval at a layer boundary. Spans of one call (or one
// ladder iteration) share its id; Parent names the span that caused it.
type span struct {
	Call   int64  `json:"call"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for the trace file; every span still feeds
// its layer's median, so the metrics cover the whole pass.
const maxSpans = 20000

// tracer keeps the traced pass's spans in memory and a histogram per span
// name. It is shared by the stepped client and the traced handler, which
// runs on a server goroutine.
type tracer struct {
	epoch time.Time
	// call is the id of the exchange in flight; the traced handler reads it
	// to attach its span to the call that caused it (one caller at a time).
	call atomic.Int64

	mu            sync.Mutex
	spans         []span
	dropped       int64
	hists         map[string]*hist
	handlerParent string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans), hists: make(map[string]*hist)}
}

// keep appends a span without counting it into a median.
func (t *tracer) keep(call int64, name, parent string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{call, name, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
}

// observe counts d into name's histogram.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = new(hist)
		t.hists[name] = h
	}
	h.record(int64(d))
}

// span keeps the span and counts its duration.
func (t *tracer) span(call int64, name, parent string, start, end time.Time) {
	t.keep(call, name, parent, start, end)
	t.observe(name, end.Sub(start))
}

// take returns name's median in nanoseconds and forgets its samples, so the
// next phase's spans of the same name start a fresh median.
func (t *tracer) take(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hists[name]
	if h == nil {
		return 0
	}
	delete(t.hists, name)
	return h.quantile(0.5)
}

func (t *tracer) setHandlerParent(p string) {
	t.mu.Lock()
	t.handlerParent = p
	t.mu.Unlock()
}

// handler wraps the benchmark's handler in a span whose parent is whatever
// is driving the server at the time: the in-memory dispatch row or the
// stepped client's wait.
func (t *tracer) handler() core.Handler {
	return func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		start := time.Now()
		resp, err := handle(ctx, req)
		end := time.Now()
		t.mu.Lock()
		parent := t.handlerParent
		t.mu.Unlock()
		t.span(t.call.Load(), "core.handler", parent, start, end)
		return resp, err
	}
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"spans_dropped"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{workload, seed, t.dropped, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
