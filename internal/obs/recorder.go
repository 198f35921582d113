package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind names one class of journaled flight-recorder event.
type EventKind uint8

const (
	// EvBreakerOpened: the svcpool circuit breaker tripped open.
	EvBreakerOpened EventKind = iota
	// EvBreakerProbe: a half-open probe was admitted.
	EvBreakerProbe
	// EvBreakerClosed: the breaker recovered to closed.
	EvBreakerClosed
	// EvConnRetired: a pooled connection was closed for health or age.
	EvConnRetired
	// EvPayloadPoisoned: an exchange ended with a poisoned (desynced)
	// binding, so its connection cannot be reused.
	EvPayloadPoisoned
	// EvRetry: a pooled call moved to a retry attempt.
	EvRetry
	// EvStreamReset: a multiplexed stream was aborted by an RST frame
	// (cancellation, flow-control violation, or internal failure).
	EvStreamReset
	// EvOverloadShed: the mux server's admission control refused a stream
	// because the dispatch queue was full.
	EvOverloadShed
	// EvSLOFired: an SLO's multi-window burn rate crossed its firing
	// threshold. The event's Trace field carries a breach exemplar.
	EvSLOFired
	// EvSLOResolved: a firing SLO's fast-window burn dropped back under
	// budget.
	EvSLOResolved

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvBreakerOpened:   "breaker.opened",
	EvBreakerProbe:    "breaker.probe",
	EvBreakerClosed:   "breaker.closed",
	EvConnRetired:     "conn.retired",
	EvPayloadPoisoned: "payload.poisoned",
	EvRetry:           "call.retry",
	EvStreamReset:     "stream.reset",
	EvOverloadShed:    "overload.shed",
	EvSLOFired:        "slo.fired",
	EvSLOResolved:     "slo.resolved",
}

// String returns the event kind's journal/JSON name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one journaled occurrence. Trace, when set, is the 16-hex trace
// ID of an exemplar request exhibiting the event's condition (SLO
// transitions carry one), resolvable at /trace/recent or /trace/slow while
// the trace remains in the recorder's rings.
type Event struct {
	At     time.Time `json:"at"`
	Node   string    `json:"node,omitempty"`
	Kind   EventKind `json:"-"`
	Name   string    `json:"kind"`
	Detail string    `json:"detail,omitempty"`
	Trace  string    `json:"trace_id,omitempty"`
}

// RecorderConfig bounds the flight recorder's rings. Zero fields take the
// defaults noted per field; every ring is fixed-size, so a recorder's
// memory footprint is bounded regardless of traffic.
type RecorderConfig struct {
	// Recent is the capacity of the most-recent-traces ring. Default 64.
	Recent int
	// Slow is the capacity of the slow-trace ring. Default 32.
	Slow int
	// Events is the capacity of the event journal. Default 256.
	Events int
	// SlowThreshold routes a trace into the slow ring once any of its hops
	// takes at least this long. Default 1ms; negative disables the ring.
	// Auto-tightened to each declared SLO's P99 target when the recorder's
	// observer declares objectives (see WithSLOs).
	SlowThreshold time.Duration
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Recent <= 0 {
		c.Recent = 64
	}
	if c.Slow <= 0 {
		c.Slow = 32
	}
	if c.Events <= 0 {
		c.Events = 256
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Millisecond
	}
	return c
}

// traceEntry collects the finished hops of one trace ID, in arrival order.
type traceEntry struct {
	id   TraceID
	hops []*Hop
	slow bool
}

// Recorder is the always-on flight recorder: three bounded, lock-cheap
// rings — the most recent traces, the recent traces that crossed the slow
// threshold, and a structured event journal. Hops arrive via
// Observer.FinishHop; hops sharing a trace ID are joined into one entry, so
// in-process multi-node deployments (tests, the bench harness, an
// intermediary relaying to a backend) see one joined trace per request.
// Separate processes each record their own hops under the shared wire
// trace ID, which is the cross-process correlation key.
//
// All methods are nil-safe, so a disabled recorder can be threaded through
// unconditionally (the package's //paylint:nil-sink marker covers it).
type Recorder struct {
	cfg        RecorderConfig
	slowThresh atomic.Int64 // runtime slow threshold, ns; <= -1 disables

	mu     sync.Mutex
	byID   map[TraceID]*traceEntry
	recent []*traceEntry // ring, oldest first
	slow   []*traceEntry // ring, oldest first
	events []Event       // ring, oldest first
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:  cfg,
		byID: make(map[TraceID]*traceEntry, cfg.Recent),
	}
	r.slowThresh.Store(int64(cfg.SlowThreshold))
	return r
}

// SlowThreshold returns the current slow-trace threshold (0 on a nil
// Recorder; negative when the slow ring is disabled).
func (r *Recorder) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowThresh.Load())
}

// TightenSlowThreshold lowers the slow-trace threshold to d if d is
// positive and below the current threshold — the SLO engine's hook, so a
// declared P99 objective guarantees breaching requests land in the slow
// ring. A disabled ring (negative threshold) stays disabled. No-op on a
// nil Recorder.
func (r *Recorder) TightenSlowThreshold(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	for {
		cur := r.slowThresh.Load()
		if cur < 0 || cur <= int64(d) || r.slowThresh.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// record joins a finished hop into its trace entry, creating (and, at
// capacity, evicting) entries as needed. Called by Observer.FinishHop.
func (r *Recorder) record(h *Hop) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	e := r.byID[h.tc.ID]
	if e == nil {
		e = &traceEntry{id: h.tc.ID}
		r.byID[h.tc.ID] = e
		r.recent = append(r.recent, e)
		if len(r.recent) > r.cfg.Recent {
			evicted := r.recent[0]
			r.recent = r.recent[1:]
			delete(r.byID, evicted.id)
		}
	}
	e.hops = append(e.hops, h)
	if thresh := time.Duration(r.slowThresh.Load()); !e.slow && thresh > 0 && h.total >= thresh {
		e.slow = true
		r.slow = append(r.slow, e)
		if len(r.slow) > r.cfg.Slow {
			r.slow = r.slow[1:]
		}
	}
	r.mu.Unlock()
}

// addEvent journals one event, evicting the oldest past capacity.
func (r *Recorder) addEvent(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	if len(r.events) > r.cfg.Events {
		r.events = r.events[1:]
	}
	r.mu.Unlock()
}

// Recent returns up to n joined trace trees, newest first (all of the ring
// for n <= 0). Nil-safe.
func (r *Recorder) Recent(n int) []*TraceTree {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := treesOf(r.recent, n)
	r.mu.Unlock()
	return out
}

// Slow returns up to n trace trees that crossed the slow threshold, newest
// first. Nil-safe.
func (r *Recorder) Slow(n int) []*TraceTree {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := treesOf(r.slow, n)
	r.mu.Unlock()
	return out
}

// Events returns up to n journaled events, newest first. Nil-safe.
func (r *Recorder) Events(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.events) {
		n = len(r.events)
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		out[i] = r.events[len(r.events)-1-i]
	}
	return out
}

// Trace returns the joined tree for one trace ID, or nil if it has been
// evicted or never seen. Nil-safe.
func (r *Recorder) Trace(id TraceID) *TraceTree {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.byID[id]
	if e == nil {
		return nil
	}
	return e.tree()
}

func treesOf(entries []*traceEntry, n int) []*TraceTree {
	if n <= 0 || n > len(entries) {
		n = len(entries)
	}
	out := make([]*TraceTree, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, entries[len(entries)-1-i].tree())
	}
	return out
}

// TraceNode is one hop rendered into the tree. Wire is the portion of a
// client hop's send+wait that the joined child hop cannot account for —
// i.e. the time the message and its response spent on the link (under
// netsim, the shaped RTT + pacing delay), attributed to this hop of the
// path. It is zero for server hops and for unjoined client hops' children.
type TraceNode struct {
	Node   string        `json:"node,omitempty"`
	Role   string        `json:"role"`
	Seq    int           `json:"seq"`
	Start  time.Time     `json:"start"`
	Total  time.Duration `json:"total_ns"`
	Wire   time.Duration `json:"wire_ns,omitempty"`
	Stages []StageSpan   `json:"stages"`
	Err    string        `json:"error,omitempty"`
	Child  *TraceNode    `json:"child,omitempty"`
}

// TraceTree is one joined trace: the hop chain nested root-first. Hops is
// the flat count (the chain length this recorder saw).
type TraceTree struct {
	ID    string        `json:"trace_id"`
	Hops  int           `json:"hops"`
	Total time.Duration `json:"total_ns"`
	Root  *TraceNode    `json:"root"`
}

// tree builds the nested view of an entry. Caller holds r.mu (the hops
// themselves are immutable once recorded).
func (e *traceEntry) tree() *TraceTree {
	hops := make([]*Hop, len(e.hops))
	copy(hops, e.hops)
	// The request path is a chain: nest by sequence number. Duplicate or
	// gapped sequences (partial views, evictions elsewhere) still render —
	// sort order is (seq, start).
	sort.SliceStable(hops, func(i, j int) bool { return hops[i].tc.Seq < hops[j].tc.Seq })
	var root, prev *TraceNode
	t := &TraceTree{ID: hops[0].tc.ID.String(), Hops: len(hops)}
	for _, h := range hops {
		n := &TraceNode{
			Node:   h.node,
			Role:   h.role,
			Seq:    h.tc.Seq,
			Start:  h.start,
			Total:  h.total,
			Stages: h.stages,
			Err:    h.errmsg,
		}
		if root == nil {
			root = n
			t.Total = h.total
		} else {
			prev.Child = n
		}
		prev = n
	}
	t.Root = root
	attributeWire(root)
	return t
}

// attributeWire walks the chain computing per-hop wire time: for each
// client hop joined with its successor server hop, wire = (send + wait) −
// the server's busy time (decode + handler + encode + send). ServerReceive
// is excluded from busy time — on persistent channels it contains idle time
// between requests, not work on this one. Unjoined client hops report their
// whole send+wait as wire (nothing downstream to subtract).
func attributeWire(n *TraceNode) {
	for ; n != nil; n = n.Child {
		if n.Role != RoleClient {
			continue
		}
		wire := stageSum(n.Stages, ClientSend) + stageSum(n.Stages, ClientWait)
		if c := n.Child; c != nil && c.Role == RoleServer {
			wire -= stageSum(c.Stages, ServerDecode) + stageSum(c.Stages, ServerHandler) +
				stageSum(c.Stages, ServerEncode) + stageSum(c.Stages, ServerSend)
		}
		if wire > 0 {
			n.Wire = wire
		}
	}
}

func stageSum(spans []StageSpan, st Stage) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Stage == st {
			d += s.Dur
		}
	}
	return d
}

// FprintTrace renders a trace tree as indented text (the soapclient -trace
// output):
//
//	trace 9c0ffee1deadbeef  hops=4  total=12.4ms
//	└─ client @client seq=0 total=12.4ms wire≈11.1ms [encode=210µs checkout=3µs send=80µs wait=12ms decode=95µs]
//	   └─ server @proxy seq=1 total=1.2ms [receive=..., decode=..., handler=..., encode=..., send=...]
//	   ...
func FprintTrace(w io.Writer, t *TraceTree) {
	if t == nil || t.Root == nil {
		fmt.Fprintln(w, "trace: (empty)")
		return
	}
	fmt.Fprintf(w, "trace %s  hops=%d  total=%v\n", t.ID, t.Hops, t.Total)
	indent := ""
	for n := t.Root; n != nil; n = n.Child {
		var sb strings.Builder
		for i, s := range n.Stages {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s=%v", s.Name, s.Dur)
		}
		wire := ""
		if n.Wire > 0 {
			wire = fmt.Sprintf(" wire≈%v", n.Wire)
		}
		errs := ""
		if n.Err != "" {
			errs = fmt.Sprintf(" error=%q", n.Err)
		}
		fmt.Fprintf(w, "%s└─ %s @%s seq=%d total=%v%s%s [%s]\n",
			indent, n.Role, n.Node, n.Seq, n.Total, wire, errs, sb.String())
		indent += "   "
	}
}
