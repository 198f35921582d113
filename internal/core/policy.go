package core

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/shape"
	"bxsoap/internal/xbs"
	"bxsoap/internal/xmltext"
)

// Encoding is the encoding policy concept (paper §5.2): a serializer and a
// factory for the bXDM model. Two models ship by default — XMLEncoding and
// BXSAEncoding — and any type satisfying the interface can be plugged in as
// the E parameter of Engine/Server (wssec.Secured wraps one to add a
// signature, demonstrating policy composition).
type Encoding interface {
	// Name identifies the policy in logs and the experiment tables.
	Name() string
	// ContentType is the MIME type the binding should advertise.
	ContentType() string
	// AppendEncode serializes doc by appending to dst, returning the
	// extended slice (the visitor direction). This is the pipeline's
	// zero-copy path: the engine hands in a pooled payload buffer and the
	// codec fills it in place, with no intermediate bytes.Buffer.
	AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error)
	// Decode parses an encoded document back into bXDM (the factory
	// direction). The input bytes are not retained: callers may recycle
	// the buffer as soon as Decode returns.
	Decode(data []byte) (*bxdm.Document, error)
	// EncodeChunks serializes doc into sink as chunks of roughly chunkBytes
	// each, ending with one last=true chunk; a non-positive chunkBytes
	// means DefaultChunkBytes. The concatenated chunks are byte-identical
	// to AppendEncode's output, so streamed and buffered peers interoperate
	// at the bytes level. On error the sink is left unfinished and the
	// caller aborts it, so wrapping policies (wssec) compose without
	// double-aborting.
	EncodeChunks(doc *bxdm.Document, chunkBytes int, sink ChunkSink) error
	// DecodeChunks parses one message from src, consuming chunks as the
	// parse advances. On success the last chunk has been consumed; on error
	// the caller aborts the source.
	DecodeChunks(src ChunkSource) (*bxdm.Document, error)
}

// XMLEncoding is the textual XML 1.0 encoding policy. Type hints are always
// emitted so typed bXDM trees survive the lexical round trip (SOAP encoding
// rules, paper §4.2).
type XMLEncoding struct {
	// PlainStrings disables xsi:type/arrayType emission; leaf and array
	// nodes then serialize as plain elements. Used by the Table 1 scenario
	// where the paper measures namespace-free minimal XML.
	PlainStrings bool
}

// Name implements Encoding.
func (XMLEncoding) Name() string { return "XML" }

// ContentType implements Encoding.
func (XMLEncoding) ContentType() string { return "text/xml; charset=utf-8" }

// AppendEncode implements Encoding.
func (x XMLEncoding) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	return xmltext.AppendEncode(dst, doc, xmltext.EncodeOptions{TypeHints: !x.PlainStrings})
}

// Decode implements Encoding.
func (x XMLEncoding) Decode(data []byte) (*bxdm.Document, error) {
	return xmltext.Parse(data, xmltext.DecodeOptions{
		RecoverTypes:               !x.PlainStrings,
		DropInterElementWhitespace: true,
	})
}

// CompileTemplate implements TemplateCompiler. Hintless XML (PlainStrings)
// cannot rebuild typed trees on decode, so it declines and keeps the
// generic path.
func (x XMLEncoding) CompileTemplate(doc *bxdm.Document) (Template, error) {
	t, err := xmltext.CompileTemplate(doc, xmltext.EncodeOptions{TypeHints: !x.PlainStrings})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// BXSAEncoding is the binary XML encoding policy.
type BXSAEncoding struct {
	Order xbs.ByteOrder
}

// Name implements Encoding.
func (BXSAEncoding) Name() string { return "BXSA" }

// ContentType implements Encoding.
func (BXSAEncoding) ContentType() string { return "application/x-bxsa" }

// AppendEncode implements Encoding. BXSA measures before it emits, so the
// destination is grown to the exact encoded size in one step.
func (b BXSAEncoding) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	return bxsa.MarshalAppend(dst, doc, bxsa.EncodeOptions{Order: b.Order})
}

// Decode implements Encoding.
func (BXSAEncoding) Decode(data []byte) (*bxdm.Document, error) {
	return bxsa.ParseDocument(data)
}

// CompileTemplate implements TemplateCompiler: BXSA's shape-deterministic
// layout compiles to a fixed-window skeleton splice.
func (b BXSAEncoding) CompileTemplate(doc *bxdm.Document) (Template, error) {
	t, err := bxsa.CompileTemplate(doc, bxsa.EncodeOptions{Order: b.Order})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// sizeHints carries a per-encoding running estimate of encoded message
// size (keyed by Name()), so EncodePayload can draw a right-sized pooled
// buffer before the document's size is known. The estimate decays by a
// quarter between observations and snaps up to any larger message, so it
// tracks the recent peak without growing monotonically.
var sizeHints sync.Map // string -> *atomic.Int64

func sizeHintFor(name string) int {
	if v, ok := sizeHints.Load(name); ok {
		return int(v.(*atomic.Int64).Load())
	}
	return 0
}

func recordSizeHint(name string, n int) {
	v, ok := sizeHints.Load(name)
	if !ok {
		v, _ = sizeHints.LoadOrStore(name, new(atomic.Int64))
	}
	a := v.(*atomic.Int64)
	est := a.Load()
	est -= est / 4
	if int64(n) > est {
		est = int64(n)
	}
	a.Store(est)
}

// Codec is the envelope-level serialization facade over an Encoding: every
// conversion between *Envelope and wire bytes — pooled-payload encode,
// plain-bytes encode, decode — lives here under one documented API, so the
// engines, bindings, svcpool, and the obs stage names all mean the same
// operation when they say "encode" or "decode". The type parameter keeps
// the paper's compile-time policy binding: a Codec[BXSAEncoding] calls the
// concrete encoder directly, monomorphized and inlinable.
//
// plans is a pointer so the cache survives the by-value copies handed out
// by Engine.Codec()/Dispatcher.Codec(); nil (the default) keeps every call
// on the generic path.
type Codec[E Encoding] struct {
	enc   E
	plans *planCache
}

// NewCodec builds the facade over enc.
func NewCodec[E Encoding](enc E) Codec[E] { return Codec[E]{enc: enc} }

// Encoding returns the underlying encoding policy.
func (c Codec[E]) Encoding() E { return c.enc }

// ContentType returns the MIME type the binding should advertise.
func (c Codec[E]) ContentType() string { return c.enc.ContentType() }

// EncodePayload serializes an envelope into a pooled payload via the
// encoding's append path. BXSA grows the buffer to its exact measured size;
// XML relies on the running per-encoding estimate to make reallocation the
// exception. With a template cache attached, envelopes of a previously
// compiled shape skip the tree walk: variable leaves are spliced straight
// into the cached skeleton. The caller owns the payload and must Release
// it.
//
//paylint:returns owned
func (c Codec[E]) EncodePayload(e *Envelope) (*Payload, error) {
	if c.plans == nil {
		return c.encodeGeneric(e)
	}
	return c.encodeTemplated(e)
}

// encodeGeneric is the tree-walking encode path.
//
//paylint:returns owned
func (c Codec[E]) encodeGeneric(e *Envelope) (*Payload, error) {
	name := c.enc.Name()
	p := NewPayload(sizeHintFor(name))
	out, err := c.enc.AppendEncode(p.buf, e.Document())
	if err != nil {
		p.Release()
		return nil, err
	}
	p.buf = out
	recordSizeHint(name, len(out))
	return p, nil
}

// encodeTemplated consults the plan cache before falling back to the
// generic walk. Cache misses encode generically first (so a compile
// failure costs nothing extra) and then offer the shape to compile, which
// compiles it only on its second sighting; splice errors demote to the
// generic path for this call only.
//
//paylint:returns owned
func (c Codec[E]) encodeTemplated(e *Envelope) (*Payload, error) {
	pc := c.plans
	vp := pc.getVars()
	key, ok := shape.Fingerprint(e.HeaderEntries, e.BodyChildren, vp)
	if !ok {
		pc.putVars(vp)
		pc.miss()
		return c.encodeGeneric(e)
	}
	if entry := pc.lookup(key); entry != nil {
		if entry.tmpl != nil {
			name := c.enc.Name()
			p := NewPayload(sizeHintFor(name))
			out, err := entry.tmpl.AppendEncode(p.buf, *vp)
			pc.putVars(vp)
			if err == nil {
				p.buf = out
				recordSizeHint(name, len(out))
				pc.hit()
				return p, nil
			}
			p.Release()
		} else {
			pc.putVars(vp)
		}
		pc.miss()
		return c.encodeGeneric(e)
	}
	pc.putVars(vp)
	pc.miss()
	p, err := c.encodeGeneric(e)
	if err == nil {
		pc.compile(c.enc, key, e)
	}
	return p, err
}

// EncodeBytes serializes an envelope into a fresh byte slice (the
// non-pooled path, for callers that keep the bytes).
func (c Codec[E]) EncodeBytes(e *Envelope) ([]byte, error) {
	return c.enc.AppendEncode(nil, e.Document())
}

// DecodeEnvelope parses encoded bytes back into an envelope. The input is
// not retained; callers may recycle the buffer as soon as it returns. With
// a template cache attached, bytes matching a compiled shape are decoded
// by window extraction and prototype instantiation instead of a full
// parse; unmatched bytes take the generic parser and teach the cache their
// shape for next time.
func (c Codec[E]) DecodeEnvelope(data []byte) (*Envelope, error) {
	if c.plans != nil {
		if env := c.plans.matchDecode(data); env != nil {
			return env, nil
		}
	}
	doc, err := c.enc.Decode(data)
	if err != nil {
		return nil, err
	}
	env, err := EnvelopeFromDocument(doc)
	if err == nil && c.plans != nil {
		c.plans.miss()
		c.plans.observeDecoded(c.enc, env)
	}
	return env, err
}

// DecodePayload parses a payload's bytes back into an envelope. The
// payload is borrowed: ownership stays with the caller.
//
//paylint:borrows
func (c Codec[E]) DecodePayload(p *Payload) (*Envelope, error) {
	return c.DecodeEnvelope(p.Bytes())
}

// Binding is the client-side binding policy concept (paper §5.3): it
// carries serialized SOAP messages over an underlying protocol. The four
// valid expressions match the paper's list — send_request,
// receive_response on this interface; receive_request, send_response on the
// server-side Channel.
//
// The engine runs every exchange over StreamBinding, the chunk face; on
// the shipped bindings these two calls are that face's one-chunk case,
// kept for callers that step an exchange by hand. A Binding without the
// stream face is carried one chunk each way.
type Binding interface {
	// SendRequest transmits one serialized SOAP message. The binding
	// borrows payload for the duration of the call and must not retain
	// it past returning (Retain first if the transport writes
	// asynchronously); the caller keeps ownership, so a pooled request
	// can be reused across retries.
	//
	//paylint:borrows
	SendRequest(ctx context.Context, payload *Payload, contentType string) error
	// ReceiveResponse blocks for the reply to the last request — for a
	// one-way MEP, the transport-level acknowledgement, which the engine
	// drains to keep the connection in sync. Ownership of the returned
	// payload transfers to the caller, which must Release it after
	// decoding.
	//
	//paylint:returns owned
	ReceiveResponse(ctx context.Context) (payload *Payload, contentType string, err error)
	// Close releases the underlying transport.
	Close() error
}

// ServerBinding accepts transport channels on the server side.
type ServerBinding interface {
	// Accept blocks for the next transport channel (e.g. a TCP connection
	// or an HTTP request slot).
	Accept() (Channel, error)
	// Addr reports the bound address for clients to dial.
	Addr() net.Addr
	// Close stops accepting.
	Close() error
}

// Channel is one server-side message exchange sequence. It speaks the chunk
// seam (stream.go): a buffered exchange is the one-chunk case of each call,
// not a second pair of methods.
type Channel interface {
	// ReceiveRequest blocks until the next request begins and returns a
	// source for its chunks; it returns io.EOF when the peer is done. A
	// message the peer framed whole comes back as a one-chunk source. The
	// caller reads the source to its last chunk or aborts it.
	ReceiveRequest(ctx context.Context) (src ChunkSource, contentType string, err error)
	// SendResponse opens the reply to the request just received. The
	// caller writes the message into the returned sink and finishes it with
	// a last chunk, or aborts it. A reply whose first chunk is also its
	// last goes out in the binding's buffered wire form.
	SendResponse(contentType string) (ChunkSink, error)
	// Close tears the channel down.
	Close() error
}

// CheckContentType verifies that the peer's content type matches the
// engine's encoding policy (a mismatch means the two sides were composed
// with different policies). Comparison is on the media type alone —
// parameters such as charset, surrounding whitespace, and letter case are
// all insignificant per RFC 2045 §5.1.
func CheckContentType(enc Encoding, got string) error {
	want := enc.ContentType()
	if got == "" || got == want {
		return nil
	}
	if mediaType(got) == mediaType(want) {
		return nil
	}
	return fmt.Errorf("soap: content type %q does not match encoding %s (%q)", got, enc.Name(), want)
}

// mediaType extracts the lowercased, whitespace-trimmed media type from a
// Content-Type value, dropping any parameters.
func mediaType(ct string) string {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			ct = ct[:i]
			break
		}
	}
	start, end := 0, len(ct)
	for start < end && (ct[start] == ' ' || ct[start] == '\t') {
		start++
	}
	for end > start && (ct[end-1] == ' ' || ct[end-1] == '\t') {
		end--
	}
	ct = ct[start:end]
	lower := ct
	for i := 0; i < len(ct); i++ {
		if c := ct[i]; 'A' <= c && c <= 'Z' {
			b := []byte(ct)
			for j := i; j < len(b); j++ {
				if 'A' <= b[j] && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			lower = string(b)
			break
		}
	}
	return lower
}
