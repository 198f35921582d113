package core

import (
	"bytes"
	"context"
	"errors"
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
// TCP, BXSA/HTTP, BXSA/TCP, and any future policy — is a distinct,
// type-checked engine type. What is static and what is dynamic: the
// composition is fixed at compile time and no call site chooses a policy at
// run time, but on go1.24 a method call on a type parameter is a dictionary
// call, not an inlined one (the generic body is compiled once per GC shape;
// -gcflags=-m=2 shows it), and the exchange itself runs over the binding's
// stream face, whose sinks and sources are interface values by
// construction.
type Engine[E Encoding, B Binding] struct {
	codec Codec[E]
	bind  B
	// face is the binding's stream face, which every exchange runs over:
	// bind itself, or the one-chunk adapter for a binding without one.
	face StreamBinding
	obs  *obs.Observer

	// chunkBytes is nonzero when WithStreaming was given and the binding
	// streams: envelope requests then go out as chunk sequences of that
	// window. At 0 a request is encoded whole and sent as one chunk.
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
	if sb, ok := any(bind).(StreamBinding); ok {
		e.face = sb
	} else {
		e.face, e.chunkBytes = bufferedFace{bind}, 0
	}
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
// engine runs buffered (or its binding cannot stream). Retry layers use it
// to decide whether a request can be encoded once and replayed (buffered)
// or must be re-encoded per attempt (streamed — the chunks were consumed
// by the transport).
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
	return e.owned(ctx, req, false)
}

// CallStream performs the request-response exchange from the envelope,
// streaming the encode into the binding chunk by chunk. It is the retry
// layers' streamed counterpart of CallPayload: a streamed request has no
// materialized payload to replay, so each attempt calls this again and the
// envelope tree is the replay source. Like CallPayload, the caller owns the
// trace hop and threads it via obs.ContextWithHop; no new trace is rooted
// here. When the binding cannot stream (or the engine runs buffered), the
// request is encoded whole per call.
func (e *Engine[E, B]) CallStream(ctx context.Context, req *Envelope) (*Envelope, error) {
	return e.attempt(ctx, req, nil, false)
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
	return e.attempt(ctx, nil, req, false)
}

// Send performs the one-way message exchange pattern: the request is
// transmitted and the transport-level acknowledgement is drained, keeping
// persistent connections in sync. A SOAP fault riding the acknowledgement
// is decoded and returned as a *Fault — the peer refusing the message is an
// application outcome, not a transport failure — while genuine transport
// errors come back as *TransportError, so retry logic can tell the two
// apart. Non-fault acknowledgement payloads are drained without decoding.
func (e *Engine[E, B]) Send(ctx context.Context, req *Envelope) error {
	_, err := e.owned(ctx, req, true)
	return err
}

// SendPayload performs the one-way exchange with an already serialized
// request, borrowing the payload like CallPayload does.
//
//paylint:borrows
func (e *Engine[E, B]) SendPayload(ctx context.Context, req *Payload) error {
	_, err := e.attempt(ctx, nil, req, true)
	return err
}

// owned runs an exchange the engine owns end to end (Call, Send): it roots
// or continues the trace hop and lands the finished exchange in the
// dimensional series for its operation — the span's marked total as the
// latency, any error (SOAP faults included: a fault burns the caller's
// error budget even though the transport worked) as the failure flag, and
// the hop's trace ID as the exemplar.
func (e *Engine[E, B]) owned(ctx context.Context, req *Envelope, oneWay bool) (*Envelope, error) {
	req, hop := BeginClientTrace(e.obs, req)
	sp := e.obs.SpanWith(hop)
	var op string
	if e.obs.Dimensional() {
		op = OpName(req)
	}
	resp, err := e.exchange(ctx, req, nil, &sp, oneWay)
	e.obs.FinishHop(hop, err)
	if op != "" {
		e.obs.RecordOp(op, obs.RoleClient, sp.Total(), err != nil, hop.Context().ID)
	}
	return resp, err
}

// attempt runs an exchange whose caller owns the logical call (CallStream,
// CallPayload, SendPayload): the caller threaded its trace hop via
// obs.ContextWithHop, and records the call once across attempts, as
// svcpool does. The ctx lookup is gated on Tracing so the disabled path
// stays free.
//
//paylint:borrows
func (e *Engine[E, B]) attempt(ctx context.Context, req *Envelope, pre *Payload, oneWay bool) (*Envelope, error) {
	var hop *obs.Hop
	if e.obs.Tracing() {
		hop = obs.HopFromContext(ctx)
	}
	sp := e.obs.SpanWith(hop)
	return e.exchange(ctx, req, pre, &sp, oneWay)
}

// exchange is the engine's one message exchange, run over the binding's
// stream face under the caller's span. The request is either pre, a
// serialized payload the caller keeps, or req. A request that goes out
// whole — pre, or req at window 0, encoded here before the binding is
// touched — is written by SendWhole as the message's one last chunk;
// otherwise req streams through the codec into the sink, so the first
// chunk is on the wire while later parts of the tree are still being
// serialized. The reply is decoded through the codec's chunk seam (a
// one-chunk reply zero-copy and templated), or, for a one-way exchange,
// drained as an acknowledgement.
//
// Stage marks: ClientEncode covers a whole-message encode (a streamed one
// has none — ClientSend covers the interleaved encode+send), ClientWait
// ends when the reply's first chunk is available, and ClientDecode covers
// the decode. Stages are marked on failure paths too, so a transport error
// still leaves a complete, ordered trace.
//
//paylint:borrows
func (e *Engine[E, B]) exchange(ctx context.Context, req *Envelope, pre *Payload, sp *obs.Span, oneWay bool) (*Envelope, error) {
	whole := pre // the request as one chunk, if it goes out whole
	if whole == nil && e.chunkBytes == 0 {
		p, err := e.codec.EncodePayload(req)
		if err != nil {
			e.obs.Inc(obs.CallsStarted)
			e.obs.Inc(obs.CallsFailed)
			return nil, fmt.Errorf("soap: encode request: %w", err)
		}
		sp.Mark(obs.ClientEncode)
		defer p.Release()
		whole = p
	}
	e.obs.Inc(obs.CallsStarted)
	var err error
	if whole != nil {
		err = SendWhole(ctx, e.face, whole, e.codec.ContentType())
	} else {
		err = e.stream(ctx, req)
	}
	sp.Mark(obs.ClientSend)
	if err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, classifyTransport("send request", err)
	}
	waitOp := "receive response"
	if oneWay {
		waitOp = "transport acknowledgement"
	}
	src, ct, err := e.face.ReceiveResponseStream(ctx)
	sp.Mark(obs.ClientWait)
	if err != nil {
		e.obs.Inc(obs.CallsFailed)
		return nil, classifyTransport(waitOp, err)
	}
	if whole == nil {
		src = countingSource{src, e.obs}
	}
	if oneWay {
		return nil, e.acknowledge(src, ct)
	}
	if err := CheckContentType(e.codec.Encoding(), ct); err != nil {
		src.Abort()
		e.obs.Inc(obs.CallsFailed)
		return nil, err
	}
	resp, err := e.codec.DecodeChunks(src)
	sp.Mark(obs.ClientDecode)
	if err != nil {
		src.Abort()
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

// stream opens the request on the binding and streams req into it at the
// engine's window, aborting the sink if the encode or a write fails.
func (e *Engine[E, B]) stream(ctx context.Context, req *Envelope) error {
	sink, err := e.face.SendRequestStream(ctx, e.codec.ContentType())
	if err != nil {
		return err
	}
	if err := e.codec.EncodeChunks(req, e.chunkBytes, countingSink{sink, e.obs}); err != nil {
		sink.Abort()
		return err
	}
	return nil
}

// acknowledge drains a one-way exchange's reply. A cheap sniff comes first
// so the one-way fast path never pays a decode; only an acknowledgement
// that looks like a fault is decoded, and a fault found is returned.
func (e *Engine[E, B]) acknowledge(src ChunkSource, ct string) error {
	p, err := GatherChunks(src)
	if err != nil {
		src.Abort()
		e.obs.Inc(obs.CallsFailed)
		return classifyTransport("transport acknowledgement", err)
	}
	defer p.Release()
	e.obs.Inc(obs.CallsCompleted)
	if ackLooksLikeFault(p.Bytes()) && CheckContentType(e.codec.Encoding(), ct) == nil {
		if resp, err := e.codec.DecodePayload(p); err == nil {
			if f := FaultFromEnvelope(resp); f != nil {
				e.obs.Inc(obs.ClientFaults)
				return f
			}
		}
	}
	return nil
}

// ackLooksLikeFault sniffs an acknowledgement payload for a fault marker;
// both encodings spell the element name "Fault" literally. The whole
// payload is scanned: a fault envelope may carry arbitrarily large leading
// headers (e.g. signed Security headers), and bytes.Contains over the
// acknowledgement is cheap next to the exchange that produced it.
func ackLooksLikeFault(payload []byte) bool {
	return bytes.Contains(payload, []byte("Fault"))
}

// Close releases the engine's binding.
func (e *Engine[E, B]) Close() error { return e.bind.Close() }

// bufferedFace is the stream face of a Binding that has only the buffered
// one: a request is its one last chunk and the reply its one chunk. The
// engine runs such a binding at window 0, so its sink never sees a first
// chunk that is not the last.
type bufferedFace struct{ Binding }

func (f bufferedFace) SendRequestStream(ctx context.Context, contentType string) (ChunkSink, error) {
	return &bufferedSink{b: f.Binding, ctx: ctx, ct: contentType}, nil
}

func (f bufferedFace) ReceiveResponseStream(ctx context.Context) (ChunkSource, string, error) {
	p, ct, err := f.ReceiveResponse(ctx)
	if err != nil {
		return nil, "", err
	}
	return ResumeSource(p, true, nil), ct, nil
}

// bufferedSink hands the one chunk to Binding.SendRequest, under the
// exchange's context.
type bufferedSink struct {
	b   Binding
	ctx context.Context
	ct  string
}

//paylint:transfers
func (s *bufferedSink) WriteChunk(p *Payload, last bool) error {
	defer p.Release()
	if !last {
		return errors.New("core: binding cannot stream a multi-chunk request")
	}
	return s.b.SendRequest(s.ctx, p, s.ct)
}

// Abort is a no-op: nothing reaches the binding before the one chunk.
func (s *bufferedSink) Abort() {}
