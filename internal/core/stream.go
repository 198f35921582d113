package core

import (
	"context"
	"fmt"
	"io"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/obs"
	"bxsoap/internal/xmltext"
)

// This file is the chunk seam of the codec API (grounded in "Non-Blocking
// Signature of very large SOAP Messages"): a message flows through the
// pipeline as an ordered sequence of pooled Payload chunks, so maximum
// message size is decoupled from memory and time-to-first-byte is decoupled
// from total encode time. The materialized message is the seam's one-chunk
// case, not a second path: a sequence whose first chunk is also its last is
// encoded, framed and decoded exactly as a buffered message always was (see
// Codec.EncodeChunks, Codec.DecodeChunks and each binding's sink).
//
// Contracts at the chunk seam (see DESIGN.md "Streaming pipeline"):
//
//   - A message is one WriteChunk sequence ending with exactly one
//     last=true chunk. Chunk boundaries are preserved end to end: every
//     binding delivers the same chunk sequence the encoder produced (wssec's
//     trailing-signature detection depends on this).
//   - WriteChunk transfers ownership of the chunk to the sink; ReadChunk
//     transfers ownership of the returned chunk to the caller.
//   - On failure the side that noticed calls Abort exactly once instead of
//     finishing the sequence; transports then poison the underlying stream
//     (a half-delivered message can never be confused with a complete one).
//   - Abort is idempotent and safe after any prefix of the sequence; after
//     the complete sequence it is a no-op (the stream position is known).

// DefaultChunkBytes is the chunk window used when WithStreaming or an
// Encoding's EncodeChunks is given a non-positive size: large enough that
// per-chunk framing overhead vanishes, small enough that a handful of
// in-flight chunks stay well under the 16 MiB pipeline budget.
const DefaultChunkBytes = 256 << 10

// ChunkSink receives one message as an ordered chunk sequence.
type ChunkSink interface {
	// WriteChunk appends one chunk to the message; last marks the final
	// chunk. The sink takes ownership of p and releases it once consumed.
	//
	//paylint:transfers
	WriteChunk(p *Payload, last bool) error
	// Abort abandons the message mid-sequence. The underlying stream is
	// unusable for further messages and the transport poisons it.
	Abort()
}

// ChunkSource yields one message as an ordered chunk sequence.
type ChunkSource interface {
	// ReadChunk returns the next chunk and whether it is the final one.
	// Ownership of the chunk transfers to the caller, which must Release
	// it. After the last chunk, further reads return io.EOF.
	//
	//paylint:returns owned
	ReadChunk() (p *Payload, last bool, err error)
	// Abort abandons the rest of the message. The underlying stream is
	// unusable for further messages and the transport poisons it.
	Abort()
}

// StreamBinding is the chunk face of a client Binding, the one every
// engine exchange runs over. A message whose first chunk is also its last
// goes out in the binding's buffered wire form.
type StreamBinding interface {
	Binding
	// SendRequestStream opens a chunked request; the caller writes the
	// message into the returned sink and finishes it with a last chunk
	// (or aborts it).
	SendRequestStream(ctx context.Context, contentType string) (ChunkSink, error)
	// ReceiveResponseStream blocks until the response begins, returning a
	// source for its chunks. A buffered (non-chunked) response comes back
	// as a one-chunk source, so a streaming client interoperates with a
	// buffered server.
	ReceiveResponseStream(ctx context.Context) (ChunkSource, string, error)
}

// SendWhole is Binding.SendRequest for a binding that streams: p goes out
// as the request's one last chunk. The payload is borrowed — the sink takes
// a reference of its own.
//
//paylint:borrows
func SendWhole(ctx context.Context, sb StreamBinding, p *Payload, contentType string) error {
	sink, err := sb.SendRequestStream(ctx, contentType)
	if err != nil {
		return err
	}
	p.Retain()
	if err := sink.WriteChunk(p, true); err != nil {
		sink.Abort()
		return err
	}
	return nil
}

// ReceiveWhole is Binding.ReceiveResponse for a binding that streams: the
// response as one payload the caller owns — its only chunk itself when it
// is one, a gathered copy (bounded by MaxMessageSize) when it streamed.
//
//paylint:returns owned
func ReceiveWhole(ctx context.Context, sb StreamBinding) (*Payload, string, error) {
	src, ct, err := sb.ReceiveResponseStream(ctx)
	if err != nil {
		return nil, "", err
	}
	p, err := GatherChunks(src)
	if err != nil {
		src.Abort()
		return nil, "", &TransportError{Op: "receive response", Err: err}
	}
	return p, ct, nil
}

// ResumeSource returns a source that yields p — a chunk already read off
// src, with its last flag — and then the rest of src. Layers that must look
// at the head of a message before choosing how to decode it (the codec's
// one-chunk rule, wssec's frame magic) hand the message on through it. With
// last set and a nil src it is a materialized payload seen as a one-chunk
// stream. Takes ownership of p; Abort releases it if unread and aborts src.
//
//paylint:transfers
func ResumeSource(p *Payload, last bool, src ChunkSource) ChunkSource {
	return &resumedSource{p: p, last: last, src: src}
}

type resumedSource struct {
	p    *Payload
	last bool
	src  ChunkSource // may be nil when last is set
}

//paylint:returns owned
func (s *resumedSource) ReadChunk() (*Payload, bool, error) {
	if p := s.p; p != nil {
		s.p = nil
		return p, s.last, nil
	}
	if s.last {
		return nil, false, io.EOF
	}
	return s.src.ReadChunk()
}

func (s *resumedSource) Abort() {
	s.drop()
	if s.src != nil {
		s.src.Abort()
	}
}

// drop releases the held chunk if the consumer never read it.
func (s *resumedSource) drop() {
	s.p.Release()
	s.p = nil
}

// MaxMessageSize bounds one gathered message (and, through the framing
// package, one wire frame): a peer can make a receiver hold at most this
// much of a message it has not finished sending.
const MaxMessageSize = 1 << 30

// GatherChunks materializes a chunk sequence as one pooled payload the
// caller owns. A message whose first chunk is also its last IS that chunk
// (no copy); a longer one is concatenated, up to MaxMessageSize — a peer
// that never sets last cannot grow the payload without bound. On error
// nothing is retained and the caller aborts the source.
//
//paylint:returns owned
func GatherChunks(src ChunkSource) (*Payload, error) { return gatherChunks(src, MaxMessageSize) }

//paylint:returns owned
func gatherChunks(src ChunkSource, limit int) (*Payload, error) {
	c, last, err := src.ReadChunk()
	if err != nil || last {
		return c, err
	}
	p := NewPayload(2 * c.Len())
	for {
		p.Write(c.Bytes())
		c.Release()
		if last {
			return p, nil
		}
		if c, last, err = src.ReadChunk(); err == nil && p.Len()+c.Len() > limit {
			c.Release()
			err = fmt.Errorf("core: chunked message exceeds %d bytes", limit)
		}
		if err != nil {
			p.Release()
			return nil, err
		}
	}
}

// EncodeChunks implements Encoding: the BXSA emit pass spills its output
// windows into pooled chunks as it goes, so memory is bounded by the chunk
// window while the bytes stay identical to AppendEncode (the measure pass
// still runs first — it is O(nodes), which is what keeps first-byte latency
// independent of array payload size).
func (b BXSAEncoding) EncodeChunks(doc *bxdm.Document, chunkBytes int, sink ChunkSink) error {
	em := chunkEmitter{sink: sink}
	if err := bxsa.EncodeChunked(doc, bxsa.EncodeOptions{Order: b.Order}, normChunkBytes(chunkBytes), em.emit); err != nil {
		em.discard()
		return err
	}
	return em.finish()
}

// DecodeChunks implements Encoding via the reader-based BXSA decoder:
// chunks are consumed (and their pooled buffers recycled) as the parse
// advances through the frame tree.
func (b BXSAEncoding) DecodeChunks(src ChunkSource) (*bxdm.Document, error) {
	cr := chunkReader{src: src}
	doc, err := bxsa.DecodeDocumentReader(&cr)
	cr.discard()
	return doc, err
}

// EncodeChunks implements Encoding: the XML encoder emits element at a
// time, straight into the pending pooled chunk (chunkWriter), so each byte
// is written once and a message allocates no buffer of its own.
func (x XMLEncoding) EncodeChunks(doc *bxdm.Document, chunkBytes int, sink ChunkSink) error {
	w := chunkWriter{em: chunkEmitter{sink: sink}, chunkBytes: normChunkBytes(chunkBytes)}
	if err := xmltext.Encode(&w, doc, xmltext.EncodeOptions{TypeHints: !x.PlainStrings}); err != nil {
		w.discard()
		return err
	}
	return w.finish()
}

// DecodeChunks implements Encoding as a gathered decode: the whole message
// in one pooled payload (bounded by GatherChunks), then the buffered parser
// — documented in the DESIGN.md fallback matrix. The parser is one pass,
// but it is tied to a whole buffer by its direct p.data[p.pos] indexing,
// the bytes.Index lookaheads for comment, CDATA and PI ends, and
// tryFastArray's rewind to the array's start on fallback.
func (x XMLEncoding) DecodeChunks(src ChunkSource) (*bxdm.Document, error) {
	p, err := GatherChunks(src)
	if err != nil {
		return nil, err
	}
	doc, err := x.Decode(p.Bytes())
	p.Release()
	return doc, err
}

// chunkEmitter turns byte windows into owned pooled chunks with one window
// of lookahead, so the final window can be marked last=true without the
// producer having to know its output size in advance.
type chunkEmitter struct {
	sink    ChunkSink
	pending *Payload
}

// emit copies one produced window into a pooled chunk and queues it. The
// window may alias the producer's scratch buffer; it is copied before emit
// returns.
func (c *chunkEmitter) emit(b []byte) error {
	p := NewPayload(len(b))
	p.Write(b)
	return c.push(p)
}

// push holds a full chunk and forwards the previously held one.
//
//paylint:transfers
func (c *chunkEmitter) push(p *Payload) error {
	prev := c.pending
	c.pending = p
	if prev != nil {
		return c.sink.WriteChunk(prev, false)
	}
	return nil
}

// finish forwards the held chunk as the message's last (an empty message
// still sends one empty last chunk, so every message has a well-formed
// terminator).
func (c *chunkEmitter) finish() error {
	p := c.pending
	c.pending = nil
	if p == nil {
		p = NewPayload(0)
	}
	return c.sink.WriteChunk(p, true)
}

// discard drops the held chunk after a failure; aborting the sink is the
// caller's job.
func (c *chunkEmitter) discard() {
	if c.pending != nil {
		c.pending.Release()
		c.pending = nil
	}
}

// chunkWriter is the streamed XML encoder's writer: bytes land directly in
// a pooled chunk, which is queued on the emitter as soon as it holds a full
// window.
type chunkWriter struct {
	em         chunkEmitter
	chunkBytes int
	cur        *Payload // the chunk being filled; nil until a byte arrives
}

func (w *chunkWriter) Write(b []byte) (int, error) { return writeChunked(w, b) }

func (w *chunkWriter) WriteString(s string) (int, error) { return writeChunked(w, s) }

func (w *chunkWriter) WriteByte(c byte) error {
	w.room()
	w.cur.buf = append(w.cur.buf, c)
	return w.spill()
}

func writeChunked[S string | []byte](w *chunkWriter, b S) (int, error) {
	n := len(b)
	for len(b) > 0 {
		k := min(w.room(), len(b))
		w.cur.buf = append(w.cur.buf, b[:k]...)
		b = b[k:]
		if err := w.spill(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// room returns the free bytes of the chunk being filled, starting one if
// there is none.
func (w *chunkWriter) room() int {
	if w.cur == nil {
		w.cur = NewPayload(w.chunkBytes)
	}
	return w.chunkBytes - len(w.cur.buf)
}

// spill queues the chunk being filled once it holds a full window.
func (w *chunkWriter) spill() error {
	if len(w.cur.buf) < w.chunkBytes {
		return nil
	}
	p := w.cur
	w.cur = nil
	return w.em.push(p)
}

// finish queues the partly filled chunk and sends the held one as the
// message's last.
func (w *chunkWriter) finish() error {
	if p := w.cur; p != nil {
		w.cur = nil
		if err := w.em.push(p); err != nil {
			w.em.discard()
			return err
		}
	}
	return w.em.finish()
}

// discard drops both held chunks after a failure; aborting the sink is the
// caller's job.
func (w *chunkWriter) discard() {
	if w.cur != nil {
		w.cur.Release()
		w.cur = nil
	}
	w.em.discard()
}

// chunkReader adapts a ChunkSource to io.Reader for consumers that parse
// through the reader interface (the BXSA stream decoder): each chunk is
// released as soon as it is drained, so the reader holds at most one chunk.
type chunkReader struct {
	src  ChunkSource
	cur  *Payload
	off  int
	done bool
}

func (r *chunkReader) Read(b []byte) (int, error) {
	for r.cur == nil || r.off == r.cur.Len() {
		if r.cur != nil {
			r.cur.Release()
			r.cur, r.off = nil, 0
		}
		if r.done {
			return 0, io.EOF
		}
		c, last, err := r.src.ReadChunk()
		if err != nil {
			return 0, err
		}
		r.cur, r.off, r.done = c, 0, last
	}
	n := copy(b, r.cur.Bytes()[r.off:])
	r.off += n
	return n, nil
}

// discard releases any partially consumed chunk after the parse finishes or
// fails; aborting the source is the caller's job.
func (r *chunkReader) discard() {
	if r.cur != nil {
		r.cur.Release()
		r.cur = nil
	}
}

// EncodeChunks sends an envelope into sink as chunks of roughly chunkBytes.
// Window 0 is the one-chunk case: the message is EncodePayload's — template
// cache included — handed over whole as the single last chunk. A positive
// window streams through the encoding (the template cache does not apply;
// plans splice materialized buffers). On error the sink is left unfinished
// and the caller aborts it.
func (c Codec[E]) EncodeChunks(e *Envelope, chunkBytes int, sink ChunkSink) error {
	if chunkBytes > 0 {
		return c.enc.EncodeChunks(e.Document(), chunkBytes, sink)
	}
	p, err := c.EncodePayload(e)
	if err != nil {
		return err
	}
	return sink.WriteChunk(p, true)
}

// DecodeChunks parses a chunked message into an envelope. A message whose
// first chunk is also its last is DecodePayload over that chunk — zero-copy
// and templated; a longer one is decoded incrementally by the encoding. On
// error the caller aborts the source.
func (c Codec[E]) DecodeChunks(src ChunkSource) (*Envelope, error) {
	first, last, err := src.ReadChunk()
	if err != nil {
		return nil, err
	}
	if last {
		env, err := c.DecodePayload(first)
		first.Release()
		return env, err
	}
	rs := resumedSource{p: first, src: src}
	doc, err := c.enc.DecodeChunks(&rs)
	rs.drop()
	if err != nil {
		return nil, err
	}
	return EnvelopeFromDocument(doc)
}

// countingSink wraps a transport sink with the obs chunk counters and the
// bytes-in-flight gauge: bytes enter the in-flight account when handed to
// the transport. The matching countingSource subtracts on consumption, so
// on a node running both directions the gauge reads the streaming
// pipeline's buffered bytes.
type countingSink struct {
	sink ChunkSink
	obs  *obs.Observer
}

func (s countingSink) WriteChunk(p *Payload, last bool) error {
	s.obs.Inc(obs.StreamChunksSent)
	s.obs.GaugeAdd(obs.StreamBytesInFlight, int64(p.Len()))
	return s.sink.WriteChunk(p, last)
}

func (s countingSink) Abort() { s.sink.Abort() }

// countingSource wraps a transport source with the receive-side counters.
type countingSource struct {
	src ChunkSource
	obs *obs.Observer
}

//paylint:returns owned
func (s countingSource) ReadChunk() (*Payload, bool, error) {
	p, last, err := s.src.ReadChunk()
	if err == nil {
		s.obs.Inc(obs.StreamChunksReceived)
		s.obs.GaugeAdd(obs.StreamBytesInFlight, -int64(p.Len()))
	}
	return p, last, err
}

func (s countingSource) Abort() { s.src.Abort() }
