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

// EncodeChunks implements Encoding: the XML writer already emits
// element-at-a-time through an io.Writer, so streaming is xmltext.Encode
// pointed at a chunking writer.
func (x XMLEncoding) EncodeChunks(doc *bxdm.Document, chunkBytes int, sink ChunkSink) error {
	em := chunkEmitter{sink: sink}
	cw := chunkingWriter{em: &em, chunkBytes: normChunkBytes(chunkBytes)}
	if err := xmltext.Encode(&cw, doc, xmltext.EncodeOptions{TypeHints: !x.PlainStrings}); err != nil {
		em.discard()
		return err
	}
	if err := cw.flush(); err != nil {
		em.discard()
		return err
	}
	return em.finish()
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

// emit copies one produced window into a pooled chunk and forwards the
// previously held chunk. The window may alias the producer's scratch
// buffer; it is copied before emit returns.
func (c *chunkEmitter) emit(b []byte) error {
	p := NewPayload(len(b))
	p.Write(b)
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

// chunkingWriter adapts a chunkEmitter to io.Writer for producers that
// stream through the writer interface (the XML encoder): bytes accumulate
// in a scratch window and spill as chunks when the window fills.
type chunkingWriter struct {
	em         *chunkEmitter
	chunkBytes int
	buf        []byte
}

func (w *chunkingWriter) Write(b []byte) (int, error) {
	n := len(b)
	for len(b) > 0 {
		if w.buf == nil {
			w.buf = make([]byte, 0, w.chunkBytes)
		}
		room := w.chunkBytes - len(w.buf)
		if room == 0 {
			if err := w.em.emit(w.buf); err != nil {
				return 0, err
			}
			w.buf = w.buf[:0]
			continue
		}
		k := min(room, len(b))
		w.buf = append(w.buf, b[:k]...)
		b = b[k:]
	}
	return n, nil
}

func (w *chunkingWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.em.emit(w.buf)
	w.buf = w.buf[:0]
	return err
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

type pipeChunk struct {
	p    *Payload
	last bool
}

// ChunkPipe is an in-process bounded chunk queue: the sink side blocks when
// window chunks are unconsumed, which is exactly the backpressure a
// transport provides. It exists for tests and in-process compositions; the
// bindings implement their own wire-backed sinks and sources.
type ChunkPipe struct {
	ch     chan pipeChunk
	done   chan struct{}
	closed bool
}

// NewChunkPipe builds a pipe holding at most window unconsumed chunks.
func NewChunkPipe(window int) *ChunkPipe {
	if window <= 0 {
		window = 1
	}
	return &ChunkPipe{ch: make(chan pipeChunk, window), done: make(chan struct{})}
}

// WriteChunk implements ChunkSink.
//
//paylint:transfers
func (p *ChunkPipe) WriteChunk(c *Payload, last bool) error {
	select {
	case p.ch <- pipeChunk{c, last}:
		return nil
	case <-p.done:
		c.Release()
		return fmt.Errorf("core: chunk pipe aborted")
	}
}

// ReadChunk implements ChunkSource.
//
//paylint:returns owned
func (p *ChunkPipe) ReadChunk() (*Payload, bool, error) {
	select {
	case c := <-p.ch:
		return c.p, c.last, nil
	case <-p.done:
		// Drain any chunks racing the abort so their buffers recycle.
		for {
			select {
			case c := <-p.ch:
				c.p.Release()
			default:
				return nil, false, fmt.Errorf("core: chunk pipe aborted")
			}
		}
	}
}

// Abort implements both ends' Abort: it wakes the peer and recycles queued
// chunks. Idempotent.
func (p *ChunkPipe) Abort() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.done)
	for {
		select {
		case c := <-p.ch:
			c.p.Release()
		default:
			return
		}
	}
}
