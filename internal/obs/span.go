package obs

import "time"

// Stage names one step of the request path. Client and server stages are
// distinct even where the work is symmetrical (both sides encode and
// decode), so one Observer can carry a whole in-process client+server
// deployment without the two paths polluting each other's histograms.
type Stage uint8

const (
	// ClientEncode is request serialization into a pooled payload.
	ClientEncode Stage = iota
	// ClientCheckout is the svcpool connection-checkout wait: free-list
	// reuse, a fresh dial, or blocking for a slot under backpressure.
	ClientCheckout
	// ClientSend is opening the request and writing its chunks: framing
	// plus the write side of the exchange (and, for a streamed request,
	// the interleaved encode).
	ClientSend
	// ClientWait is waiting for the response's first chunk: the wire round
	// trip plus the server's entire processing time.
	ClientWait
	// ClientDecode is response parsing back into an envelope.
	ClientDecode
	// ServerReceive is the blocking read for the next request on a
	// channel. On persistent channels it includes idle time between
	// requests, so it measures arrival spacing rather than pure read cost.
	ServerReceive
	// ServerDecode is request parsing, content-type check included.
	ServerDecode
	// ServerHandler is the application handler.
	ServerHandler
	// ServerEncode is response serialization.
	ServerEncode
	// ServerSend is Channel.SendResponse.
	ServerSend
	// NetShape is the delay the netsim shaper injected for one write: RTT
	// turnaround plus bandwidth pacing, recorded on the simulated clock.
	NetShape

	numStages
)

var stageNames = [numStages]string{
	ClientEncode:   "client.encode",
	ClientCheckout: "client.checkout",
	ClientSend:     "client.send",
	ClientWait:     "client.wait",
	ClientDecode:   "client.decode",
	ServerReceive:  "server.receive",
	ServerDecode:   "server.decode",
	ServerHandler:  "server.handler",
	ServerEncode:   "server.encode",
	ServerSend:     "server.send",
	NetShape:       "netsim.shape",
}

// String returns the stage's snapshot/JSON name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// NumStages is the number of defined stages (for tests and tabulation).
const NumStages = int(numStages)

// Span measures a sequence of consecutive stages on one goroutine: each
// Mark records the time since the previous Mark (or since the span began)
// into that stage's histogram and restarts the clock. A Span is a plain
// value — starting and marking one allocates nothing — and the zero Span
// (from a nil Observer) ignores every call without reading the clock.
type Span struct {
	o     *Observer
	start time.Time
	last  time.Time
	hop   *Hop
}

// Span begins a span now. On a nil Observer it returns the zero Span and
// reads no clock.
func (o *Observer) Span() Span {
	if o == nil {
		return Span{}
	}
	now := o.now()
	o.tickAt(now)
	return Span{o: o, start: now, last: now}
}

// SpanWith begins a span whose marks additionally accumulate into the hop's
// trace record. A nil hop makes it identical to Span, so the request path
// threads whatever StartHop returned without branching.
func (o *Observer) SpanWith(h *Hop) Span {
	if o == nil {
		return Span{}
	}
	now := o.now()
	o.tickAt(now)
	return Span{o: o, start: now, last: now, hop: h}
}

// Mark records the duration since the span's previous mark into stage st
// and restarts the span clock. Each mark also advances the Observer's
// window tick, keeping the clock-free recording paths current.
func (s *Span) Mark(st Stage) {
	if s.o == nil {
		return
	}
	now := s.o.now()
	s.o.tickAt(now)
	d := now.Sub(s.last)
	s.o.ObserveStage(st, d)
	s.hop.observe(st, d)
	s.last = now
}

// Total returns the span's duration from its start through its most recent
// mark, without reading a clock (0 on the zero Span) — the per-call
// latency the instrumentation layer feeds into RecordOp after the final
// stage mark.
func (s *Span) Total() time.Duration {
	if s.o == nil {
		return 0
	}
	return s.last.Sub(s.start)
}

// Restart resets the span clock without recording — for skipping a stage
// that did not run (e.g. a cache hit) so its cost does not leak into the
// next mark.
func (s *Span) Restart() {
	if s.o == nil {
		return
	}
	s.last = s.o.now()
}
