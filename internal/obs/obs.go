// Package obs is the engine-wide observability layer: atomic counters,
// gauges with high-water tracking, fixed-bucket log-spaced latency
// histograms with mergeable snapshots, and lightweight span tracing for the
// request path. The paper's whole argument (Figs. 5–9) is a decomposition
// of where time goes — encode, wire, handler, decode — across the
// (encoding, binding) policy grid; this package makes that decomposition
// observable on the real engine instead of only end-to-end from the bench
// harness.
//
// The package is dependency-free (standard library only, no other bxsoap
// packages), so every layer — core, the bindings, svcpool, netsim, the
// harness — can report into it without import cycles.
//
// # The nil-sink contract
//
// Every recording method is safe on a nil *Observer and does nothing — no
// clock reads, no atomic traffic, no allocations. Instrumented code holds a
// plain *Observer field (nil by default) and calls it unconditionally; the
// zero-instrumentation path costs one predictable branch per call site and
// zero allocations, which BenchmarkPooledCalls verifies under -benchmem.
// Code never needs to guard a call site with its own nil check.
//
// # Deterministic clocks
//
// An Observer reads time only through its installed now function (WithNow),
// and every recording primitive has an explicit-duration form (ObserveStage)
// that reads no clock at all. Packages under a deterministic-clock regime
// (netsim, enforced by paylint's nowallclock analyzer) instrument themselves
// by passing durations they already computed on the simulated clock.
//
// The nil-sink contract is enforced statically: paylint's nilsink analyzer
// requires every exported method of the marked types below to nil-check its
// receiver.
//
//paylint:nil-sink Observer Span Recorder Hop Registry Series WindowedHistogram WindowedCounter
package obs

import (
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomic up/down value that also tracks its high-water mark.
type Gauge struct {
	v  atomic.Int64
	hw atomic.Int64
}

// Add moves the gauge by d (negative to decrement) and advances the
// high-water mark when the new value exceeds it.
func (g *Gauge) Add(d int64) {
	n := g.v.Add(d)
	for {
		hw := g.hw.Load()
		if n <= hw || g.hw.CompareAndSwap(hw, n) {
			return
		}
	}
}

// Observe records an externally tracked instantaneous value: the gauge
// takes v as its current reading and advances the high-water mark past it
// if needed. It is the sampling counterpart of Add, for quantities whose
// per-entity count lives elsewhere (e.g. each mux connection reporting its
// own stream count into a shared gauge, where only the maximum is
// meaningful).
func (g *Gauge) Observe(v int64) {
	g.v.Store(v)
	for {
		hw := g.hw.Load()
		if v <= hw || g.hw.CompareAndSwap(hw, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HighWater returns the largest value the gauge has reached.
func (g *Gauge) HighWater() int64 { return g.hw.Load() }

// Reset zeroes the value and the high-water mark.
func (g *Gauge) Reset() {
	g.v.Store(0)
	g.hw.Store(0)
}

// CounterID names one of the Observer's fixed counters. The fixed set (vs. a
// registry of arbitrary names) keeps recording a single array index with no
// map lookups or lock traffic on the hot path.
type CounterID uint8

// The Observer's counters. Client call counters obey the balance invariant
// checked by the test suite: every call that increments CallsStarted
// increments exactly one of CallsCompleted (the peer answered, faults
// included) or CallsFailed (everything else) before returning.
const (
	// CallsStarted counts client call/send attempts entering the engine.
	CallsStarted CounterID = iota
	// CallsCompleted counts attempts the peer answered (faults included —
	// a fault proves the transport and both codecs work).
	CallsCompleted
	// CallsFailed counts attempts that returned without a peer answer.
	CallsFailed
	// ClientFaults counts completed calls whose answer was a SOAP fault.
	ClientFaults
	// ServerRequests counts requests dispatched by a server.
	ServerRequests
	// ServerFaults counts server responses that carried a fault envelope.
	ServerFaults
	// PayloadPoolHits counts payload checkouts served by a pooled buffer.
	PayloadPoolHits
	// PayloadPoolMisses counts payload checkouts that had to allocate.
	PayloadPoolMisses
	// PoolRetries counts svcpool retry attempts beyond each call's first.
	PoolRetries
	// PoolRetirements counts svcpool connections closed for health/age.
	PoolRetirements
	// BreakerOpened counts transitions of the svcpool breaker to open
	// (threshold trips, failed probes, and abandoned probes re-opening).
	BreakerOpened
	// BreakerProbes counts half-open probe admissions.
	BreakerProbes
	// BreakerClosed counts recoveries (transitions back to closed).
	BreakerClosed
	// MessagesSent counts serialized messages written by a binding.
	MessagesSent
	// MessagesReceived counts serialized messages read by a binding.
	MessagesReceived
	// BytesSent counts message payload bytes written by a binding.
	BytesSent
	// BytesReceived counts message payload bytes read by a binding.
	BytesReceived
	// NetTurnarounds counts netsim connection direction changes (each one
	// pays half an RTT on the simulated link).
	NetTurnarounds
	// NetBytes counts bytes paced through the netsim shaper.
	NetBytes
	// MuxStreamsOpened counts logical streams opened on multiplexed
	// connections (client side: one per exchange admitted onto a session).
	MuxStreamsOpened
	// MuxSheds counts streams refused by the mux server's admission control
	// (queue full → RST overload back to the client).
	MuxSheds
	// MuxResets counts streams aborted by an RST frame for any other reason
	// (cancellation, flow-control violation, internal failure), counted by
	// whichever side sent or surfaced the reset.
	MuxResets
	// TemplateHits counts codec operations served by a compiled plan: a
	// templated skeleton-splice encode or a template-matched decode.
	TemplateHits
	// TemplateMisses counts codec operations that consulted the plan cache
	// but took the generic tree walk (unknown shape, no-match, or a shape
	// compiled negative).
	TemplateMisses
	// TemplateEvictions counts plans evicted from a full template cache.
	TemplateEvictions
	// TemplateCompiles counts plan compilations (successful or negative).
	TemplateCompiles
	// StreamChunksSent counts chunks handed to a transport by the streamed
	// encode path (requests on clients, responses on servers).
	StreamChunksSent
	// StreamChunksReceived counts chunks consumed from a transport by the
	// streamed decode path.
	StreamChunksReceived
	// SeriesOverflow counts dimensional recordings routed to the shared
	// overflow series because the registry's cardinality bound was hit.
	SeriesOverflow
	// SLOFired counts SLO burn-rate alert transitions to firing.
	SLOFired
	// SLOResolved counts SLO burn-rate alert transitions back to resolved.
	SLOResolved

	numCounters
)

var counterNames = [numCounters]string{
	CallsStarted:         "client.calls_started",
	CallsCompleted:       "client.calls_completed",
	CallsFailed:          "client.calls_failed",
	ClientFaults:         "client.faults",
	ServerRequests:       "server.requests",
	ServerFaults:         "server.faults",
	PayloadPoolHits:      "payload.pool_hits",
	PayloadPoolMisses:    "payload.pool_misses",
	PoolRetries:          "svcpool.retries",
	PoolRetirements:      "svcpool.retirements",
	BreakerOpened:        "svcpool.breaker_opened",
	BreakerProbes:        "svcpool.breaker_probes",
	BreakerClosed:        "svcpool.breaker_closed",
	MessagesSent:         "binding.messages_sent",
	MessagesReceived:     "binding.messages_received",
	BytesSent:            "binding.bytes_sent",
	BytesReceived:        "binding.bytes_received",
	NetTurnarounds:       "netsim.turnarounds",
	NetBytes:             "netsim.bytes",
	MuxStreamsOpened:     "mux.streams_opened",
	MuxSheds:             "mux.sheds",
	MuxResets:            "mux.resets",
	TemplateHits:         "templates.hits",
	TemplateMisses:       "templates.misses",
	TemplateEvictions:    "templates.evictions",
	TemplateCompiles:     "templates.compiles",
	StreamChunksSent:     "stream.chunks_sent",
	StreamChunksReceived: "stream.chunks_received",
	SeriesOverflow:       "series.overflow",
	SLOFired:             "slo.fired",
	SLOResolved:          "slo.resolved",
}

// String returns the counter's snapshot/JSON name.
func (c CounterID) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// GaugeID names one of the Observer's fixed gauges.
type GaugeID uint8

const (
	// PayloadsInUse tracks pooled payloads currently checked out; its
	// high-water mark is the pipeline's peak buffer footprint.
	PayloadsInUse GaugeID = iota
	// PoolInflight tracks svcpool calls currently admitted; its high-water
	// mark is the realized concurrency.
	PoolInflight
	// MuxStreams tracks logical streams currently open across every
	// multiplexed connection reporting into this observer; its high-water
	// mark is the realized stream concurrency.
	MuxStreams
	// MuxStreamsPerConn is fed via GaugeObserve with each connection's own
	// instantaneous stream count; its high-water mark is therefore the most
	// streams any single connection carried at once — the multiplexing
	// factor actually achieved.
	MuxStreamsPerConn
	// TemplatePlans tracks compiled plans currently resident in a
	// template cache (negative entries included); bounded by the cache
	// capacity.
	TemplatePlans
	// StreamBytesInFlight tracks bytes of chunk payloads sitting in this
	// node's streaming queues — produced by an encoder or received off the
	// wire but not yet consumed. Its high-water mark is the streaming
	// pipeline's actual buffering footprint, which the chunk-window budget
	// bounds.
	StreamBytesInFlight

	numGauges
)

var gaugeNames = [numGauges]string{
	PayloadsInUse:       "payload.in_use",
	PoolInflight:        "svcpool.inflight",
	MuxStreams:          "mux.streams",
	MuxStreamsPerConn:   "mux.streams_per_conn",
	TemplatePlans:       "templates.plans",
	StreamBytesInFlight: "stream.bytes_in_flight",
}

// String returns the gauge's snapshot/JSON name.
func (g GaugeID) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "unknown"
}

// Observer is one instrumentation sink: a fixed set of counters, gauges,
// and per-stage latency histograms shared by every layer it is wired into
// (engine, server, bindings, svcpool, payload pool, netsim). All methods
// are safe for concurrent use, and all recording methods are no-ops on a
// nil receiver (see the package comment for the nil-sink contract).
type Observer struct {
	now  func() time.Time
	node string
	rec  *Recorder

	// Windowed-metric state. winDur is the window duration ticks are
	// derived from; curTick caches the tick the last clocked recording path
	// computed, so the explicit-duration paths (ObserveStage, RecordOp)
	// place samples into the current window without reading any clock;
	// tickOff is NextWindow's forced-rotation offset.
	winDur  time.Duration
	curTick atomic.Int64
	tickOff atomic.Int64

	// Dimensional-metric state: the (encoding, transport) labels this
	// Observer stamps on every series, the bounded series registry, and the
	// declared SLOs. reg is nil unless WithDims or WithSLOs configured it —
	// RecordOp on an Observer without dimensional metrics is one branch.
	encoding  string
	transport string
	dims      bool
	reg       *Registry
	slos      *sloSet
	sloDecls  []SLO

	counters [numCounters]Counter
	gauges   [numGauges]Gauge
	stages   [numStages]WindowedHistogram
}

// Option configures an Observer at construction.
type Option func(*Observer)

// WithNow installs the Observer's time source, for deterministic-clock
// tests and simulations. The default is time.Now.
func WithNow(now func() time.Time) Option {
	return func(o *Observer) { o.now = now }
}

// WithNode labels the Observer with the node name its hops and events carry
// in trace trees and the journal ("client", "proxy", "soapserver", ...).
func WithNode(name string) Option {
	return func(o *Observer) { o.node = name }
}

// WithRecorder attaches a flight recorder, enabling per-request tracing:
// the request path starts a Hop per call, span marks accumulate into it,
// and FinishHop lands it in the recorder's rings. Without a recorder (the
// default) StartHop returns nil and tracing costs nothing beyond the plain
// span plumbing.
func WithRecorder(r *Recorder) Option {
	return func(o *Observer) { o.rec = r }
}

// WithDims enables dimensional metrics and sets the (encoding, transport)
// labels this Observer stamps on every series it records; call sites supply
// only the per-call dimensions (operation, peer role).
func WithDims(encoding, transport string) Option {
	return func(o *Observer) {
		o.encoding = encoding
		o.transport = transport
		o.dims = true
	}
}

// WithWindow sets the sliding-window duration the Observer's windowed
// aggregates rotate by. The default is DefaultWindow; d <= 0 keeps it.
func WithWindow(d time.Duration) Option {
	return func(o *Observer) {
		if d > 0 {
			o.winDur = d
		}
	}
}

// WithSLOs declares per-operation objectives and enables the burn-rate
// engine (which requires dimensional recording, so it also enables the
// registry). When a flight recorder is attached, each declared P99 also
// tightens the recorder's slow-trace threshold down to the objective so
// breach exemplars are always captured in the slow ring.
func WithSLOs(slos ...SLO) Option {
	return func(o *Observer) { o.sloDecls = append(o.sloDecls, slos...) }
}

// New builds an Observer.
func New(opts ...Option) *Observer {
	o := &Observer{now: time.Now, winDur: DefaultWindow}
	for _, opt := range opts {
		opt(o)
	}
	if o.dims || len(o.sloDecls) > 0 {
		o.reg = newRegistry()
		o.slos = newSLOSet(o.sloDecls)
	}
	if o.slos != nil && o.rec != nil {
		for _, st := range o.slos.list {
			o.rec.TightenSlowThreshold(st.slo.P99)
		}
	}
	return o
}

// tickAt derives the window tick for now, caches it for the clock-free
// recording paths, and returns it. Ticks before the epoch clamp to 0 so
// injected clocks with odd epochs degrade to a single window instead of
// unreachable negative ticks.
func (o *Observer) tickAt(now time.Time) int64 {
	t := now.UnixNano()/int64(o.winDur) + o.tickOff.Load()
	if t < 0 {
		t = 0
	}
	o.curTick.Store(t)
	return t
}

// NextWindow forces an immediate window rotation, as if a full window
// duration had elapsed. Harnesses call it after warm-up so the measured
// run's windowed percentiles contain no warm-up traffic — unlike Reset,
// which races concurrent writers, rotation is watertight: stragglers from
// the old window carry an old tick and cannot land in the new one. No-op
// on a nil Observer.
func (o *Observer) NextWindow() {
	if o == nil {
		return
	}
	o.tickOff.Add(1)
	o.curTick.Add(1)
}

// Now reads the Observer's clock (zero time on a nil Observer, with no
// clock read), advancing the window tick as a side effect. Pair with Since
// for explicit call timing on paths without a Span.
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	now := o.now()
	o.tickAt(now)
	return now
}

// Since returns the elapsed time from t on the Observer's clock (0 — and
// no clock read — on a nil Observer or a zero t, which is what Now
// returned in the disabled case).
func (o *Observer) Since(t time.Time) time.Duration {
	if o == nil || t.IsZero() {
		return 0
	}
	return o.now().Sub(t)
}

// Add adds n to counter c. No-op on a nil Observer.
func (o *Observer) Add(c CounterID, n uint64) {
	if o == nil {
		return
	}
	o.counters[c].Add(n)
}

// Inc increments counter c. No-op on a nil Observer.
func (o *Observer) Inc(c CounterID) {
	if o == nil {
		return
	}
	o.counters[c].Inc()
}

// ChunkSent records n payload bytes handed to a transport (framing overhead
// excluded) and, with last, the message they complete — a buffered message
// is its own last chunk. No-op on a nil Observer.
func (o *Observer) ChunkSent(n int, last bool) {
	if o == nil {
		return
	}
	o.counters[BytesSent].Add(uint64(n))
	if last {
		o.counters[MessagesSent].Inc()
	}
}

// ChunkReceived is ChunkSent's receive-side counterpart.
func (o *Observer) ChunkReceived(n int, last bool) {
	if o == nil {
		return
	}
	o.counters[BytesReceived].Add(uint64(n))
	if last {
		o.counters[MessagesReceived].Inc()
	}
}

// Counter returns counter c's current value (0 on a nil Observer).
func (o *Observer) Counter(c CounterID) uint64 {
	if o == nil {
		return 0
	}
	return o.counters[c].Load()
}

// GaugeAdd moves gauge g by d. No-op on a nil Observer.
func (o *Observer) GaugeAdd(g GaugeID, d int64) {
	if o == nil {
		return
	}
	o.gauges[g].Add(d)
}

// GaugeObserve records v as gauge g's current reading and raises its
// high-water mark when v exceeds it (see Gauge.Observe). No-op on a nil
// Observer.
func (o *Observer) GaugeObserve(g GaugeID, v int64) {
	if o == nil {
		return
	}
	o.gauges[g].Observe(v)
}

// Gauge returns gauge g's current value (0 on a nil Observer).
func (o *Observer) Gauge(g GaugeID) int64 {
	if o == nil {
		return 0
	}
	return o.gauges[g].Load()
}

// GaugeHighWater returns gauge g's high-water mark (0 on a nil Observer).
func (o *Observer) GaugeHighWater(g GaugeID) int64 {
	if o == nil {
		return 0
	}
	return o.gauges[g].HighWater()
}

// ObserveStage records one observation of d into stage st's histogram —
// both the lifetime aggregate and the current window. This is the
// explicit-duration entry point: it reads no clock (the window tick is
// whatever the last clocked path cached), so deterministic-clock packages
// record durations they computed on their own injected clock. No-op on a
// nil Observer.
func (o *Observer) ObserveStage(st Stage, d time.Duration) {
	if o == nil {
		return
	}
	o.stages[st].Observe(d, o.curTick.Load())
}

// StageSnapshot returns a point-in-time snapshot of stage st's lifetime
// histogram (zero on a nil Observer).
func (o *Observer) StageSnapshot(st Stage) HistogramSnapshot {
	if o == nil {
		return HistogramSnapshot{}
	}
	return o.stages[st].Lifetime()
}

// StageWindowSnapshot merges stage st's n most recent windows, the current
// one included (zero on a nil Observer).
func (o *Observer) StageWindowSnapshot(st Stage, n int) HistogramSnapshot {
	if o == nil {
		return HistogramSnapshot{}
	}
	return o.stages[st].Window(o.curTick.Load(), n)
}

// RecordOp records one dimensional sample: operation op in the given role
// (RoleClient or RoleServer) took d and succeeded or failed. The sample
// lands in the (op, encoding, transport, role) series — the Observer's
// WithDims labels fill the last three — and in op's SLO aggregates when
// one is declared, triggering burn-rate evaluation on window boundaries.
// tid (0 when untraced) feeds bucket exemplars and SLO breach exemplars.
//
// RecordOp reads no clock. It is a no-op — one branch, no atomics — when
// the Observer is nil or has no dimensional registry (neither WithDims nor
// WithSLOs configured).
func (o *Observer) RecordOp(op, role string, d time.Duration, failed bool, tid TraceID) {
	if o == nil || o.reg == nil {
		return
	}
	tick := o.curTick.Load()
	s := o.reg.Lookup(SeriesKey{Op: op, Encoding: o.encoding, Transport: o.transport, Role: role})
	if s == &o.reg.overflow {
		o.counters[SeriesOverflow].Inc()
	}
	s.Record(d, failed, tick, tid)
	if st := o.slos.state(op); st != nil {
		st.record(d, failed, tick, tid)
		o.evalSLO(st, tick)
	}
}

// Dimensional reports whether RecordOp will record anything — the gate
// instrumented code uses before computing an operation label the disabled
// path would discard. False on a nil Observer.
func (o *Observer) Dimensional() bool {
	return o != nil && o.reg != nil
}

// Reset zeroes every counter, gauge, and stage histogram. It is meant for
// quiescent moments — discarding warm-up traffic before a measured run — and
// is NOT atomic with respect to concurrent writers: a recording that races
// the reset may survive it. No-op on a nil Observer.
func (o *Observer) Reset() {
	if o == nil {
		return
	}
	for i := range o.counters {
		o.counters[i].Reset()
	}
	for i := range o.gauges {
		o.gauges[i].Reset()
	}
	for i := range o.stages {
		o.stages[i].Reset()
	}
}

// GaugeSnapshot is the exported state of one gauge.
type GaugeSnapshot struct {
	Value     int64 `json:"value"`
	HighWater int64 `json:"high_water"`
}

// Snapshot is a point-in-time, JSON-serializable export of an Observer.
// Snapshots from different observers (or different times) merge: counters
// and histogram buckets add, gauge values add, and high-water marks take
// the max — so per-connection or per-shard observers can roll up.
type Snapshot struct {
	Counters map[string]uint64            `json:"counters"`
	Gauges   map[string]GaugeSnapshot     `json:"gauges"`
	Stages   map[string]HistogramSnapshot `json:"stages"`
	// Window is the number of windows the Stages and Series aggregates
	// cover; 0 means lifetime.
	Window int `json:"window,omitempty"`
	// Series is the dimensional registry's export (nil when dimensional
	// metrics are disabled).
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// Snapshot captures the Observer's current state. Counters, gauges, and
// histograms are read atomically per metric (not globally: a snapshot taken
// under concurrent writers is internally consistent per histogram but may
// straddle writes across metrics). Zero-count stages are omitted. Returns
// an empty snapshot on a nil Observer.
func (o *Observer) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]GaugeSnapshot{},
		Stages:   map[string]HistogramSnapshot{},
	}
	if o == nil {
		return s
	}
	for i := CounterID(0); i < numCounters; i++ {
		if v := o.counters[i].Load(); v != 0 {
			s.Counters[i.String()] = v
		}
	}
	for i := GaugeID(0); i < numGauges; i++ {
		v, hw := o.gauges[i].Load(), o.gauges[i].HighWater()
		if v != 0 || hw != 0 {
			s.Gauges[i.String()] = GaugeSnapshot{Value: v, HighWater: hw}
		}
	}
	for i := Stage(0); i < numStages; i++ {
		if hs := o.stages[i].Lifetime(); hs.Count > 0 {
			s.Stages[i.String()] = hs
		}
	}
	s.Series = o.reg.Snapshot(o.curTick.Load(), NumWindows)
	return s
}

// SnapshotWindow is Snapshot restricted to recency: stage histograms and
// dimensional series cover only the n most recent windows (the current one
// included; n is clamped to [1, NumWindows]), while counters and gauges —
// which have no windowed form — remain lifetime values. Returns an empty
// snapshot on a nil Observer.
func (o *Observer) SnapshotWindow(n int) *Snapshot {
	s := o.Snapshot()
	if o == nil {
		return s
	}
	if n < 1 {
		n = 1
	}
	if n > NumWindows {
		n = NumWindows
	}
	s.Window = n
	tick := o.curTick.Load()
	for k := range s.Stages {
		delete(s.Stages, k)
	}
	for i := Stage(0); i < numStages; i++ {
		if hs := o.stages[i].Window(tick, n); hs.Count > 0 {
			s.Stages[i.String()] = hs
		}
	}
	s.Series = o.reg.Snapshot(tick, n)
	return s
}

// Merge folds other into s: counters and histograms add, gauges add their
// values and keep the larger high-water mark.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for k, v := range other.Counters {
		s.Counters[k] += v
	}
	for k, g := range other.Gauges {
		cur := s.Gauges[k]
		cur.Value += g.Value
		if g.HighWater > cur.HighWater {
			cur.HighWater = g.HighWater
		}
		s.Gauges[k] = cur
	}
	for k, h := range other.Stages {
		cur := s.Stages[k]
		cur.Merge(h)
		s.Stages[k] = cur
	}
	// Dimensional series are already keyed per node/role; a rollup keeps
	// both sides' series rather than conflating them.
	s.Series = append(s.Series, other.Series...)
}
