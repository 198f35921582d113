package core

import (
	"bytes"
	"context"
	"fmt"

	"bxsoap/internal/obs"
)

// Engine is the client-side generic SOAP engine: the Go rendering of the
// paper's
//
//	template <typename EncodingPolicy, typename BindingPolicy>
//	class SoapEngine {...};
//
// The encoding and binding policies are type parameters bound at compile
// time, so each (encoding, binding) combination — SOAP over XML/HTTP, XML/
// TCP, BXSA/HTTP, BXSA/TCP, and any future policy — monomorphizes into its
// own fully inlinable engine, type-safely and with zero dynamic dispatch in
// the hot path.
type Engine[E Encoding, B Binding] struct {
	codec Codec[E]
	bind  B
	obs   *obs.Observer

	// chunkBytes is nonzero when WithStreaming was given: Call then carries
	// messages as chunk sequences whenever the binding implements
	// StreamBinding, falling back to the buffered exchange otherwise.
	chunkBytes int
}

// NewEngine composes an engine from its two policies. Options (see
// options.go) attach cross-cutting configuration; with none, the engine is
// exactly the bare policy composition.
func NewEngine[E Encoding, B Binding](enc E, bind B, opts ...EngineOption) *Engine[E, B] {
	var cfg engineConfig
	for _, opt := range opts {
		opt.applyEngine(&cfg)
	}
	e := &Engine[E, B]{codec: NewCodec(enc), bind: bind, obs: cfg.obs, chunkBytes: cfg.chunkBytes}
	if cfg.templates > 0 {
		if tc, ok := any(enc).(TemplateCompiler); ok {
			e.codec.plans = newPlanCache(tc, cfg.templates, cfg.obs)
		}
	}
	return e
}

// Encoding returns the engine's encoding policy.
func (e *Engine[E, B]) Encoding() E { return e.codec.Encoding() }

// Codec returns the engine's serialization facade.
func (e *Engine[E, B]) Codec() Codec[E] { return e.codec }

// Binding returns the engine's binding policy.
func (e *Engine[E, B]) Binding() B { return e.bind }

// Observer returns the engine's observability sink (nil when none was
// configured; nil observers accept every recording call as a no-op).
func (e *Engine[E, B]) Observer() *obs.Observer { return e.obs }

// Streaming reports the configured chunk window in bytes, or 0 when the
// engine runs buffered. Retry layers use it to decide whether a request can
// be encoded once and replayed (buffered) or must be re-encoded per attempt
// (streamed — the chunks were consumed by the transport).
func (e *Engine[E, B]) Streaming() int { return e.chunkBytes }

// Call performs the request-response message exchange pattern. If the peer
// responds with a SOAP fault, Call returns it as the error (of type
// *Fault) alongside the decoded envelope.
//
// With tracing enabled (an Observer carrying a Recorder), Call records a
// client hop and stamps the outgoing envelope with the trace header block
// — continuing the envelope's trace when it already carries one, else
// rooting a new trace here.
func (e *Engine[E, B]) Call(ctx context.Context, req *Envelope) (*Envelope, error) {
	req, hop := BeginClientTrace(e.obs, req)
	sp := e.obs.SpanWith(hop)
	var op string
	if e.obs.Dimensional() {
		op = OpName(req)
	}
	resp, err := e.call(ctx, req, &sp)
	e.obs.FinishHop(hop, err)
	e.recordClientOp(op, &sp, hop, err)
	return resp, err
}

// call is one attempt at the exchange from the envelope, under the caller's
// span: streamed when the engine and its binding both stream, otherwise
// encoded into one pooled payload and exchanged buffered.
func (e *Engine[E, B]) call(ctx context.Context, req *Envelope, sp *obs.Span) (*Envelope, error) {
	if e.chunkBytes > 0 {
		if sb, ok := any(e.bind).(StreamBinding); ok {
			return e.callStreamed(ctx, req, sb, sp)
		}
	}
	p, err := e.codec.EncodePayload(req)
	if err != nil {
		e.obs.Inc(obs.CallsStarted)
		e.obs.Inc(obs.CallsFailed)
		return nil, fmt.Errorf("soap: encode request: %w", err)
	}
	sp.Mark(obs.ClientEncode)
	defer p.Release()
	return e.callPayload(ctx, p, sp)
}

// recordClientOp lands one finished client exchange in the dimensional
// series for op: the span's marked total as the latency, any error (SOAP
// faults included — a fault burns the caller's error budget even though
// the transport worked) as the failure flag, and the hop's trace ID as the
// exemplar. Entry points that own the whole exchange (Call, Send) record;
// the payload-level and retry-level entry points (CallPayload, CallStream,
// SendPayload) do not, because their caller owns the logical call and
// records it once across attempts — svcpool does exactly that.
func (e *Engine[E, B]) recordClientOp(op string, sp *obs.Span, hop *obs.Hop, err error) {
	if op == "" {
		return
	}
	e.obs.RecordOp(op, obs.RoleClient, sp.Total(), err != nil, hop.Context().ID)
}

// CallStream performs the request-response exchange from the envelope,
// streaming the encode into the binding chunk by chunk. It is the retry
// layers' streamed counterpart of CallPayload: a streamed request has no
// materialized payload to replay, so each attempt calls this again and the
// envelope tree is the replay source. Like CallPayload, the caller owns the
// trace hop and threads it via obs.ContextWithHop; no new trace is rooted
// here. When the binding cannot stream (or the engine runs buffered), the
// exchange falls back to a per-call buffered encode.
func (e *Engine[E, B]) CallStream(ctx context.Context, req *Envelope) (*Envelope, error) {
	sp := e.obs.SpanWith(e.callerHop(ctx))
	return e.call(ctx, req, &sp)
}

// callerHop returns the trace hop the caller of a payload- or retry-level
// entry point threaded via obs.ContextWithHop. The ctx lookup is gated on
// Tracing so the disabled path stays free.
func (e *Engine[E, B]) callerHop(ctx context.Context) *obs.Hop {
	if e.obs.Tracing() {
		return obs.HopFromContext(ctx)
	}
	return nil
}

// CallPayload performs the request-response exchange with an already
// serialized request. The engine borrows the payload — the caller keeps
// ownership, so pooled requests can be reused across retries (svcpool
// encodes once and replays the same payload on each attempt).
//
// The caller that encoded the payload owns the trace hop (it saw the
// envelope; the engine sees only bytes) and threads it via
// obs.ContextWithHop; the engine's stage marks then accumulate into it.
//
//paylint:borrows
func (e *Engine[E, B]) CallPayload(ctx context.Context, req *Payload) (*Envelope, error) {
	sp := e.obs.SpanWith(e.callerHop(ctx))
	return e.callPayload(ctx, req, &sp)
}

// roundTrip is the head every payload-level exchange shares: send the
// serialized request, wait for the reply's payload (which the caller then
// owns). Stages are marked on failure paths too, so a transport error still
// leaves a complete, ordered trace; waitOp names the receive in one.
//
//paylint:borrows
//paylint:returns owned
func (e *Engine[E, B]) roundTrip(ctx context.Context, req *Payload, sp *obs.Span, waitOp string) (*Payload, string, error) {
	e.obs.Inc(obs.CallsStarted)
	if err := e.bind.SendRequest(ctx, req, e.codec.ContentType()); err != nil {
		sp.Mark(obs.ClientSend)
		e.obs.Inc(obs.CallsFailed)
		return nil, "", classifyTransport("send request", err)
	}
	sp.Mark(obs.ClientSend)
	payload, ct, err := e.bind.ReceiveResponse(ctx)
	sp.Mark(obs.ClientWait)
	if err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, "", classifyTransport(waitOp, err)
	}
	return payload, ct, nil
}

// callPayload runs the exchange under an in-progress span (whose clock was
// restarted after any encode mark).
//
//paylint:borrows
func (e *Engine[E, B]) callPayload(ctx context.Context, req *Payload, sp *obs.Span) (*Envelope, error) {
	payload, ct, err := e.roundTrip(ctx, req, sp, "receive response")
	if err != nil {
		return nil, err
	}
	defer payload.Release()
	if err := CheckContentType(e.codec.Encoding(), ct); err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, err
	}
	// The decode call goes through the concrete type parameter E — the
	// compile-time binding the paper's policy design is about ("compiler
	// optimizations are not impacted, and inlining is still enabled").
	resp, err := e.codec.DecodePayload(payload)
	sp.Mark(obs.ClientDecode)
	if err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, fmt.Errorf("soap: decode response: %w", err)
	}
	e.obs.Inc(obs.CallsCompleted)
	if f := FaultFromEnvelope(resp); f != nil {
		// The peer answered: the call completed, with a fault as the answer.
		e.obs.Inc(obs.ClientFaults)
		return resp, f
	}
	return resp, nil
}

// callStreamed carries one exchange as chunk sequences: the request is
// encoded directly into the binding's sink, so the first chunk is on the
// wire while later parts of the tree are still being serialized, and the
// response is decoded chunk by chunk — neither direction ever materializes
// the whole message. Stage semantics shift accordingly: ClientSend covers
// the interleaved encode+send (there is no separate ClientEncode mark),
// ClientWait ends at the first response chunk's availability, and
// ClientDecode covers the chunked decode.
func (e *Engine[E, B]) callStreamed(ctx context.Context, req *Envelope, sb StreamBinding, sp *obs.Span) (*Envelope, error) {
	e.obs.Inc(obs.CallsStarted)
	sink, err := sb.SendRequestStream(ctx, e.codec.ContentType())
	if err != nil {
		sp.Mark(obs.ClientSend)
		e.obs.Inc(obs.CallsFailed)
		return nil, classifyTransport("send request", err)
	}
	if err := e.codec.EncodeChunks(req, e.chunkBytes, countingSink{sink, e.obs}); err != nil {
		sink.Abort()
		sp.Mark(obs.ClientSend)
		e.obs.Inc(obs.CallsFailed)
		return nil, classifyTransport("send request", err)
	}
	sp.Mark(obs.ClientSend)
	src, ct, err := sb.ReceiveResponseStream(ctx)
	sp.Mark(obs.ClientWait)
	if err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, classifyTransport("receive response", err)
	}
	if err := CheckContentType(e.codec.Encoding(), ct); err != nil {
		src.Abort()
		e.obs.Inc(obs.CallsFailed)
		return nil, err
	}
	resp, err := e.codec.DecodeChunks(countingSource{src, e.obs})
	sp.Mark(obs.ClientDecode)
	if err != nil {
		src.Abort()
		e.obs.Inc(obs.CallsFailed)
		return nil, fmt.Errorf("soap: decode response: %w", err)
	}
	e.obs.Inc(obs.CallsCompleted)
	if f := FaultFromEnvelope(resp); f != nil {
		e.obs.Inc(obs.ClientFaults)
		return resp, f
	}
	return resp, nil
}

// Send performs the one-way message exchange pattern: the request is
// transmitted and the transport-level acknowledgement is drained, keeping
// persistent connections in sync. A SOAP fault riding the acknowledgement
// is decoded and returned as a *Fault — the peer refusing the message is an
// application outcome, not a transport failure — while genuine transport
// errors come back as *TransportError, so retry logic can tell the two
// apart. Non-fault acknowledgement payloads are drained without decoding.
func (e *Engine[E, B]) Send(ctx context.Context, req *Envelope) error {
	req, hop := BeginClientTrace(e.obs, req)
	sp := e.obs.SpanWith(hop)
	var op string
	if e.obs.Dimensional() {
		op = OpName(req)
	}
	p, err := e.codec.EncodePayload(req)
	if err != nil {
		e.obs.Inc(obs.CallsStarted)
		e.obs.Inc(obs.CallsFailed)
		e.obs.FinishHop(hop, err)
		e.recordClientOp(op, &sp, hop, err)
		return fmt.Errorf("soap: encode request: %w", err)
	}
	sp.Mark(obs.ClientEncode)
	defer p.Release()
	err = e.sendPayload(ctx, p, &sp)
	e.obs.FinishHop(hop, err)
	e.recordClientOp(op, &sp, hop, err)
	return err
}

// SendPayload performs the one-way exchange with an already serialized
// request, borrowing the payload like CallPayload does.
//
//paylint:borrows
func (e *Engine[E, B]) SendPayload(ctx context.Context, req *Payload) error {
	sp := e.obs.SpanWith(e.callerHop(ctx))
	return e.sendPayload(ctx, req, &sp)
}

//paylint:borrows
func (e *Engine[E, B]) sendPayload(ctx context.Context, req *Payload, sp *obs.Span) error {
	payload, ct, err := e.roundTrip(ctx, req, sp, "transport acknowledgement")
	if err != nil {
		return err
	}
	defer payload.Release()
	e.obs.Inc(obs.CallsCompleted)
	// Cheap sniff first so the one-way fast path never pays a decode; both
	// encodings spell the element name "Fault" literally.
	if ackLooksLikeFault(payload.Bytes()) && CheckContentType(e.codec.Encoding(), ct) == nil {
		if resp, err := e.codec.DecodePayload(payload); err == nil {
			if f := FaultFromEnvelope(resp); f != nil {
				e.obs.Inc(obs.ClientFaults)
				return f
			}
		}
	}
	return nil
}

// ackLooksLikeFault sniffs an acknowledgement payload for a fault marker.
// The whole payload is scanned: a fault envelope may carry arbitrarily
// large leading headers (e.g. signed Security headers), and bytes.Contains
// over the acknowledgement is cheap next to the exchange that produced it.
func ackLooksLikeFault(payload []byte) bool {
	return bytes.Contains(payload, []byte("Fault"))
}

// Close releases the engine's binding.
func (e *Engine[E, B]) Close() error { return e.bind.Close() }
