package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"
)

// Per-request distributed tracing. The histograms in this package answer
// "where does time go in aggregate"; the types here answer "where did THIS
// request's time go, across every node it crossed". A TraceContext rides
// the wire as a SOAP header block (see internal/tracehdr), each engine or
// server that handles the message records its stage spans into a Hop, and
// finished hops land in the Recorder's flight rings where they are joined
// back into one trace tree by trace ID.
//
// The nil-sink contract extends to this layer: instrumented code holds a
// possibly-nil *Hop and calls it unconditionally; every method is nil-safe.
// Tracing is enabled by attaching a Recorder to an Observer (WithRecorder);
// with no recorder, StartHop returns nil and the request path does not
// allocate or read a clock beyond what the plain span plumbing already does.

// TraceID identifies one request path end to end. It is generated once at
// the originating client and carried unchanged across every hop.
type TraceID uint64

// NewTraceID draws a random trace ID.
func NewTraceID() TraceID {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("obs: entropy unavailable: %v", err))
	}
	id := TraceID(binary.BigEndian.Uint64(b[:]))
	if id == 0 {
		id = 1 // 0 is the "no trace" sentinel
	}
	return id
}

// String renders the ID as 16 lowercase hex digits — the wire form carried
// in the trace header block.
func (id TraceID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return hex.EncodeToString(b[:])
}

// ParseTraceID parses the 16-hex-digit wire form.
func ParseTraceID(s string) (TraceID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("obs: trace id %q: want 16 hex digits", s)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("obs: trace id %q: %v", s, err)
	}
	return TraceID(binary.BigEndian.Uint64(b)), nil
}

// TraceContext is the wire-propagated trace state: the trace ID plus the
// sequence number of the hop it addresses. The request path is a chain, so
// one integer fully places a hop in the tree:
//
//	seq 0  originating client (engine or svcpool)
//	seq 1  first server (a terminal server, or an intermediary's up-link)
//	seq 2  the intermediary's down-link client
//	seq 3  the backend server
//	...
//
// A client hop that finds a context already on the outgoing request (the
// intermediary relay case) takes found.Seq+1 as its own sequence and sends
// its successor downstream; a server hop adopts the received Seq verbatim.
type TraceContext struct {
	ID  TraceID
	Seq int
}

// Next returns the context addressed to the hop after this one.
func (tc TraceContext) Next() TraceContext {
	return TraceContext{ID: tc.ID, Seq: tc.Seq + 1}
}

// Hop roles.
const (
	RoleClient = "client"
	RoleServer = "server"
)

// StageSpan is one recorded stage interval of a hop, in recording order.
type StageSpan struct {
	Stage Stage         `json:"-"`
	Name  string        `json:"stage"`
	Dur   time.Duration `json:"dur_ns"`
}

// Hop is one node's view of one request: the stage spans it recorded while
// the message was in its hands, placed on the path by its trace context. A
// Hop is built single-threaded on the request goroutine (StartHop → span
// marks → FinishHop) and becomes shared — and immutable — only when
// FinishHop hands it to the Recorder.
//
// All methods are nil-safe: the request path holds a nil *Hop when tracing
// is off and calls it unconditionally.
type Hop struct {
	tc     TraceContext
	bound  bool // tc carries a real wire context (vs. pending/self-rooted)
	node   string
	role   string
	start  time.Time
	stages []StageSpan
	total  time.Duration
	errmsg string
}

// Bind attaches the wire trace context to an in-progress hop. Server hops
// call it after decoding the request (the context lives in the envelope, so
// it is unknown while receive/decode are being timed); an unbound hop gets
// a fresh self-rooted context at finish time.
func (h *Hop) Bind(tc TraceContext) {
	if h == nil {
		return
	}
	h.tc = tc
	h.bound = true
}

// Context returns the hop's trace context (zero on a nil Hop).
func (h *Hop) Context() TraceContext {
	if h == nil {
		return TraceContext{}
	}
	return h.tc
}

// SetError records the error the hop's exchange ended with. No-op on a nil
// Hop or a nil error.
func (h *Hop) SetError(err error) {
	if h == nil || err == nil {
		return
	}
	h.errmsg = err.Error()
}

// observe appends one stage interval; called by Span.Mark on the recording
// goroutine.
func (h *Hop) observe(st Stage, d time.Duration) {
	if h == nil {
		return
	}
	h.stages = append(h.stages, StageSpan{Stage: st, Name: st.String(), Dur: d})
}

// Tracing reports whether the observer has a flight recorder attached —
// i.e. whether starting hops is worthwhile. False on a nil Observer.
func (o *Observer) Tracing() bool {
	return o != nil && o.rec != nil
}

// Recorder returns the observer's flight recorder (nil when tracing is
// disabled or the Observer is nil).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Node returns the observer's node label ("" on a nil Observer).
func (o *Observer) Node() string {
	if o == nil {
		return ""
	}
	return o.node
}

// StartHop begins a hop record for one request handled by this node in the
// given role. Returns nil — and performs no work — when the Observer is nil
// or has no Recorder, so the request path may call it unconditionally.
// Client hops usually bind their context immediately; server hops Bind
// after decode.
func (o *Observer) StartHop(role string) *Hop {
	if o == nil || o.rec == nil {
		return nil
	}
	now := o.now()
	o.tickAt(now)
	return &Hop{
		node:   o.node,
		role:   role,
		start:  now,
		stages: make([]StageSpan, 0, 8),
	}
}

// FinishHop completes a hop — stamping its total duration and error — and
// submits it to the recorder. An unbound hop (no wire context arrived) is
// self-rooted under a fresh trace ID so server-side recorders still journal
// requests from trace-unaware clients. No-op when the hop or Observer is
// nil.
func (o *Observer) FinishHop(h *Hop, err error) {
	if o == nil || h == nil || o.rec == nil {
		return
	}
	if !h.bound || h.tc.ID == 0 {
		h.tc = TraceContext{ID: NewTraceID(), Seq: 0}
	}
	h.total = o.now().Sub(h.start)
	h.SetError(err)
	o.rec.record(h)
}

// Event journals a structured flight-recorder event (breaker transition,
// connection retirement, payload poisoning, ...) stamped with the
// observer's clock and node label. No-op when the Observer is nil or has no
// Recorder — callers on error/transition paths may call it unconditionally,
// but should not format detail strings the disabled path would discard;
// pass precomputed or constant strings.
func (o *Observer) Event(kind EventKind, detail string) {
	if o == nil || o.rec == nil {
		return
	}
	o.rec.addEvent(Event{At: o.now(), Node: o.node, Kind: kind, Name: kind.String(), Detail: detail})
}

// eventWithTrace journals an event carrying a trace exemplar (the SLO
// fire/resolve path). Unlike Event it stamps the journal entry with the
// trace ID of a request that exhibits the condition, so the event links
// into the flight recorder's rings.
func (o *Observer) eventWithTrace(kind EventKind, detail string, tid TraceID) {
	if o == nil || o.rec == nil {
		// No recorder: the transition still counted via the SLOFired /
		// SLOResolved counters; there is just no journal to write to.
		return
	}
	ev := Event{At: o.now(), Node: o.node, Kind: kind, Name: kind.String(), Detail: detail}
	if tid != 0 {
		ev.Trace = tid.String()
	}
	o.rec.addEvent(ev)
}
