package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/obs"
)

// Dispatcher is the transport-independent half of a SOAP server: decode,
// mustUnderstand enforcement, handler invocation, and fault conversion,
// composed over an encoding policy. Server[E, B] drives one through its
// channel loop; transports with their own scheduling discipline (the
// muxbind bounded worker pool) drive the same dispatcher from their own
// goroutines, so every server-side entry point means the same thing by
// "dispatch" and protocol behavior cannot drift between transports.
type Dispatcher[E Encoding] struct {
	codec   Codec[E]
	handler Handler
	obs     *obs.Observer
}

// NewDispatcher composes a dispatcher from an encoding policy, a handler,
// and server options (WithObserver and WithTemplates apply; transport-side
// options such as WithErrorLog are ignored here and belong to the serving
// loop that owns the channels).
func NewDispatcher[E Encoding](enc E, h Handler, opts ...ServerOption) *Dispatcher[E] {
	var cfg serverConfig
	for _, opt := range opts {
		opt.applyServer(&cfg)
	}
	d := &Dispatcher[E]{
		codec:   NewCodec(enc),
		handler: h,
		obs:     cfg.obs,
	}
	if cfg.templates > 0 {
		if tc, ok := any(enc).(TemplateCompiler); ok {
			d.codec.plans = newPlanCache(tc, cfg.templates, cfg.obs)
		}
	}
	return d
}

// Codec returns the dispatcher's serialization facade.
func (d *Dispatcher[E]) Codec() Codec[E] { return d.codec }

// Encoding returns the dispatcher's encoding policy.
func (d *Dispatcher[E]) Encoding() E { return d.codec.Encoding() }

// Observer returns the dispatcher's observability sink (nil when none was
// configured).
func (d *Dispatcher[E]) Observer() *obs.Observer { return d.obs }

// DispatchStream decodes the request off its chunk source, enforces
// mustUnderstand, runs the handler, and converts errors to faults. It never
// fails: protocol problems become fault envelopes, which is what a SOAP
// node owes its peer. A request that cannot be decoded aborts the source (a
// transport whose message was cut short marks its receive side
// desynchronized; after a complete message Abort is a no-op). The span and
// hop are the caller's in-progress server-side trace; DispatchStream marks
// the decode and handler stages into them and binds the wire trace context
// once decoded. Encoding the response belongs to the caller, which owns the
// response-side sink.
func (d *Dispatcher[E]) DispatchStream(ctx context.Context, src ChunkSource, ct string, sp *obs.Span, hop *obs.Hop) *Envelope {
	d.obs.Inc(obs.ServerRequests)
	entry := sp.Total() // receive is behind us; busy time starts here
	var req *Envelope
	err := CheckContentType(d.codec.Encoding(), ct)
	if err == nil {
		if req, err = d.codec.DecodeChunks(src); err != nil {
			err = fmt.Errorf("cannot decode request: %v", err)
		}
	}
	if err != nil {
		src.Abort()
	}
	return d.dispatchDecoded(ctx, req, err, sp, hop, entry)
}

// dispatchDecoded continues either entry point once its decode has run: a
// request that never yielded an envelope (bad content type, undecodable
// bytes) draws a Client fault carrying err; a decoded one is dispatched.
func (d *Dispatcher[E]) dispatchDecoded(ctx context.Context, req *Envelope, err error, sp *obs.Span, hop *obs.Hop, entry time.Duration) *Envelope {
	sp.Mark(obs.ServerDecode)
	if err != nil {
		d.obs.Inc(obs.ServerFaults)
		d.recordServerOp(opUndecodable, sp, hop, entry, true)
		return (&Fault{Code: FaultClient, String: err.Error()}).Envelope()
	}
	return d.dispatchEnvelope(ctx, req, sp, hop, entry)
}

// dispatchEnvelope is the decode-independent half of dispatch:
// mustUnderstand enforcement, handler invocation, and fault conversion,
// shared by both entry points so protocol behavior is defined exactly once.
func (d *Dispatcher[E]) dispatchEnvelope(ctx context.Context, req *Envelope, sp *obs.Span, hop *obs.Hop, entry time.Duration) *Envelope {
	// The wire trace context (when the client sent one) places this hop on
	// the request path; an unbound hop self-roots at FinishHop.
	BindServerTrace(hop, req)
	var op string
	if d.obs.Dimensional() {
		op = OpName(req)
	}
	// Handlers read header entries as data; the node itself processes none,
	// so every mustUnderstand entry draws a MustUnderstand fault (SOAP 1.1
	// §4.2.3).
	for _, h := range req.HeaderEntries {
		if el, ok := h.(bxdm.ElementNode); ok && mustUnderstand(el) {
			d.obs.Inc(obs.ServerFaults)
			d.recordServerOp(op, sp, hop, entry, true)
			return (&Fault{
				Code:   FaultMustUnderstand,
				String: fmt.Sprintf("header %v not understood", el.ElemName()),
			}).Envelope()
		}
	}
	resp, err := d.handler(ctx, req)
	sp.Mark(obs.ServerHandler)
	if err != nil {
		d.obs.Inc(obs.ServerFaults)
		d.recordServerOp(op, sp, hop, entry, true)
		var f *Fault
		if errors.As(err, &f) {
			return f.Envelope()
		}
		return (&Fault{Code: FaultServer, String: err.Error()}).Envelope()
	}
	if resp == nil {
		resp = NewEnvelope()
	}
	d.recordServerOp(op, sp, hop, entry, false)
	return resp
}

// opUndecodable labels server-side dimensional samples whose request never
// yielded an operation name (bad content type, undecodable payload) — a
// constant so hostile garbage cannot mint series.
const opUndecodable = "(undecodable)"

// recordServerOp lands one dispatched request in the dimensional series for
// op, in every transport's server loop, because all of them funnel through
// the dispatcher. The latency is the dispatcher's busy time — decode
// through handler completion, measured as the span's growth since dispatch
// entry — so channel idle time (ServerReceive on persistent connections)
// and response encode/send never pollute the per-operation numbers. failed
// marks requests answered with a fault.
func (d *Dispatcher[E]) recordServerOp(op string, sp *obs.Span, hop *obs.Hop, entry time.Duration, failed bool) {
	if op == "" {
		return
	}
	d.obs.RecordOp(op, obs.RoleServer, sp.Total()-entry, failed, hop.Context().ID)
}

// DispatchPayload runs one full server-side exchange in payload terms, for
// callers that hold a materialized message (the benchmark's layer ladder):
// decode and dispatch the request bytes, then encode the response
// into a pooled payload the caller owns (and must either release or hand to
// a transferring send). The request payload is borrowed — the caller keeps
// ownership and releases it after DispatchPayload returns.
//
//paylint:borrows
//paylint:returns owned
func (d *Dispatcher[E]) DispatchPayload(ctx context.Context, req *Payload, ct string, sp *obs.Span, hop *obs.Hop) (*Payload, error) {
	d.obs.Inc(obs.ServerRequests)
	entry := sp.Total()
	var env *Envelope
	err := CheckContentType(d.codec.Encoding(), ct)
	if err == nil {
		if env, err = d.codec.DecodePayload(req); err != nil {
			err = fmt.Errorf("cannot decode request: %v", err)
		}
	}
	out, err := d.codec.EncodePayload(d.dispatchDecoded(ctx, env, err, sp, hop, entry))
	sp.Mark(obs.ServerEncode)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return out, nil
}
