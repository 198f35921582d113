package muxbind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Chunked transfer over the mux (frame type CHUNK, see doc.go): one logical
// message flows as a run of flagged chunk frames on its stream, interleaved
// with other streams' traffic, so a multi-hundred-megabyte call neither
// materializes in memory nor blocks the connection for anyone else.
//
// Flow control stays at stream granularity — one credit per logical
// message, returned when the stream completes — and two mechanisms bound
// the bytes in flight inside one message:
//
//   - the sender side takes a session-wide pacing slot per queued chunk
//     (maxChunkSlots), returned when the chunk hits the wire, so a fast
//     encoder cannot pile unbounded frames into the write queue;
//   - the receiver side queues at most recvChunkWindow chunks per stream;
//     a server stream that exceeds it is shed mid-message (the reader must
//     never block on one slow consumer), while the client relies on the
//     engine's decoder draining promptly.
//
// Responses are chunked only in answer to chunked requests and only when
// the server was configured with ChunkBytes (respond-in-kind); every other
// combination falls back to a buffered DATA frame, which the streamed
// receive path surfaces as a single final chunk.

// maxChunkSlots bounds queued-but-unwritten chunks per session; with the
// default chunk window this caps the client's send-side buffering at a few
// megabytes per connection.
const maxChunkSlots = 32

// recvChunkWindow bounds chunks queued per server stream awaiting its
// decoder. Overflow sheds the stream rather than blocking the connection
// reader — one stalled consumer must not wedge every stream on the wire.
const recvChunkWindow = 32

// chunkMsg is one routed inbound chunk (or the stream's terminal error).
type chunkMsg struct {
	payload *core.Payload
	ct      string // first chunk of a message
	last    bool
	err     error
}

// cstream is one stream's inbound chunk queue: a single router (the
// connection's read loop) pushes, a single consumer (the decoder) pops.
// It is deliberately not a channel: the router must never block, the
// consumer must see queued chunks before a terminal error, and whichever
// side detaches first must leave no pooled payload behind.
type cstream struct {
	mu    sync.Mutex
	q     []chunkMsg
	err   error         // terminal; delivered after the queue drains
	dead  bool          // consumer gone: further pushes are released
	avail chan struct{} // capacity 1; signaled on push/fail
}

func newCstream() *cstream {
	return &cstream{avail: make(chan struct{}, 1)}
}

func (c *cstream) signal() {
	select {
	case c.avail <- struct{}{}:
	default:
	}
}

// push queues one chunk. With limit > 0 a full queue refuses the chunk
// (returns false, caller keeps ownership); limit 0 never refuses. Pushes
// after the consumer detached release the chunk and report success.
func (c *cstream) push(m chunkMsg, limit int) bool {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		m.payload.Release()
		return true
	}
	if limit > 0 && len(c.q) >= limit {
		c.mu.Unlock()
		return false
	}
	c.q = append(c.q, m)
	c.mu.Unlock()
	c.signal()
	return true
}

// fail sets the stream's terminal error (first caller wins) and wakes the
// consumer. Chunks already queued are still delivered first.
func (c *cstream) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.signal()
}

// pop returns the next chunk, blocking until one arrives, the terminal
// error surfaces (returned inside the chunkMsg, after which the stream is
// dead), or stop fires (ok=false; the caller still owns cleanup). A nil
// stop channel never fires.
func (c *cstream) pop(stop <-chan struct{}) (chunkMsg, bool) {
	for {
		c.mu.Lock()
		if len(c.q) > 0 {
			m := c.q[0]
			c.q[0] = chunkMsg{}
			c.q = c.q[1:]
			c.mu.Unlock()
			return m, true
		}
		if c.err != nil {
			err := c.err
			c.dead = true
			c.mu.Unlock()
			return chunkMsg{err: err}, true
		}
		c.mu.Unlock()
		select {
		case <-c.avail:
		case <-stop:
			return chunkMsg{}, false
		}
	}
}

// kill detaches the consumer: queued chunks are released and future pushes
// are swallowed. Returns the bytes freed (for gauge accounting).
func (c *cstream) kill() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	var freed int64
	for _, m := range c.q {
		if m.payload != nil {
			freed += int64(m.payload.Len())
			m.payload.Release()
		}
	}
	c.q = nil
	return freed
}

// abandonChunked ends the caller's interest in a streamed exchange: the
// stream is unregistered, its queue drained, and a best-effort RST(cancel)
// tells the server to stop.
func (s *Session) abandonChunked(id uint64, c *cstream) {
	s.mu.Lock()
	if _, ok := s.chunkStreams[id]; ok {
		delete(s.chunkStreams, id)
		s.active--
		s.obs.GaugeAdd(obs.MuxStreams, -1)
	}
	if s.failed == nil {
		select {
		case s.writeq <- qframe{typ: fRst, stream: id, code: RstCancel, detail: "stream abandoned"}:
		default:
		}
	}
	s.mu.Unlock()
	c.kill()
}

// SendRequestStream implements core.StreamBinding: it acquires one
// flow-control credit for the whole logical message, registers the
// response stream, and returns a sink whose chunks ride CHUNK frames
// through the session's batching writer.
func (b *Binding) SendRequestStream(ctx context.Context, contentType string) (core.ChunkSink, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.resp != nil || b.rxc != nil {
		return nil, errors.New("muxbind: request already in flight")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sess, err := b.tr.session()
	if err != nil {
		return nil, err
	}
	select {
	case <-sess.credits:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-sess.done:
		return nil, sess.failure()
	}
	rxc := newCstream()
	id, err := sess.open(nil, rxc)
	if err != nil {
		return nil, err
	}
	b.sess, b.streamID, b.rxc = sess, id, rxc
	return &muxSink{b: b, sess: sess, id: id, ct: contentType}, nil
}

// muxSink writes one streamed request. Each chunk takes a pacing slot
// (returned by the writer once framed) and is handed to the write queue
// with ownership; the first chunk carries the content type.
type muxSink struct {
	b       *Binding
	sess    *Session
	id      uint64
	ct      string
	started bool
}

//paylint:transfers
func (s *muxSink) WriteChunk(p *core.Payload, last bool) error {
	select {
	case <-s.sess.chunkSlots:
	case <-s.sess.done:
		p.Release()
		return s.sess.failure()
	}
	w := qframe{typ: fChunk, stream: s.id, payload: p, first: !s.started, last: last}
	if !s.started {
		w.ct = s.ct
		s.started = true
	}
	if err := s.sess.enqueue(w); err != nil {
		putSlot(s.sess.chunkSlots)
		p.Release()
		return err
	}
	return nil
}

// Abort abandons the request mid-message: RST(cancel) tells the server,
// the response stream is unregistered, and the binding is retired — the
// shared session stays healthy, exactly as with buffered cancellation.
func (s *muxSink) Abort() {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	b.poisoned = true
	if b.rxc != nil {
		b.sess.abandonChunked(b.streamID, b.rxc)
		b.sess, b.streamID, b.rxc = nil, 0, nil
	}
}

// ReceiveResponseStream implements core.StreamBinding. It waits for the
// response's first chunk (which carries the content type) and returns a
// source for the rest; a buffered DATA response arrives as one final chunk.
func (b *Binding) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, "", fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.rxc == nil {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", errors.New("muxbind: no streamed request in flight")
	}
	sess, id, rxc := b.sess, b.streamID, b.rxc
	b.sess, b.streamID, b.rxc = nil, 0, nil
	m, ok := rxc.pop(ctx.Done())
	if !ok {
		sess.abandonChunked(id, rxc)
		b.poisoned = true
		return nil, "", ctx.Err()
	}
	if m.err != nil {
		b.poisoned = true
		return nil, "", m.err
	}
	src := &muxSource{b: b, sess: sess, id: id, c: rxc}
	src.pending, src.pendingLast = m.payload, m.last
	return src, m.ct, nil
}

// muxSource reads one streamed response off the session's per-stream
// queue. The first chunk was consumed by ReceiveResponseStream for its
// content type and is replayed from pending.
type muxSource struct {
	b           *Binding
	sess        *Session
	id          uint64
	c           *cstream
	pending     *core.Payload
	pendingLast bool
	done        bool
}

//paylint:returns owned
func (s *muxSource) ReadChunk() (*core.Payload, bool, error) {
	if s.done {
		return nil, false, io.EOF
	}
	if s.pending != nil {
		p, last := s.pending, s.pendingLast
		s.pending = nil
		if last {
			s.done = true
		}
		return p, last, nil
	}
	m, _ := s.c.pop(nil)
	if m.err != nil {
		s.done = true
		s.b.mu.Lock()
		s.b.poisoned = true
		s.b.mu.Unlock()
		return nil, false, m.err
	}
	if m.last {
		s.done = true
	}
	return m.payload, m.last, nil
}

// Abort abandons the response mid-stream and retires the binding.
func (s *muxSource) Abort() {
	if s.pending != nil {
		s.pending.Release()
		s.pending = nil
	}
	s.done = true
	s.sess.abandonChunked(s.id, s.c)
	s.b.mu.Lock()
	s.b.poisoned = true
	s.b.mu.Unlock()
}

// srvChunkSource adapts one server stream's inbound chunk queue to
// core.ChunkSource for the dispatcher's streamed decode. The worker running
// the job is the sole consumer.
type srvChunkSource struct {
	sc     *srvConn
	stream uint64
	st     *cstream
	done   bool
}

//paylint:returns owned
func (s *srvChunkSource) ReadChunk() (*core.Payload, bool, error) {
	if s.done {
		return nil, false, io.EOF
	}
	m, _ := s.st.pop(nil)
	if m.err != nil {
		s.done = true
		return nil, false, m.err
	}
	s.sc.obs.Inc(obs.StreamChunksReceived)
	s.sc.obs.GaugeAdd(obs.StreamBytesInFlight, -int64(m.payload.Len()))
	if m.last {
		s.done = true
	}
	return m.payload, m.last, nil
}

// Abort detaches the decoder: queued chunks are released and any still
// arriving find no chunkRx entry, draining silently. The connection stays
// healthy — the faulting side already produced the response. Idempotent.
func (s *srvChunkSource) Abort() {
	s.done = true
	s.sc.mu.Lock()
	if s.sc.chunkRx[s.stream] == s.st {
		delete(s.sc.chunkRx, s.stream)
	}
	s.sc.mu.Unlock()
	s.st.kill()
}

// srvChunkSink writes one chunked response. Each chunk takes a
// connection-wide pacing slot (returned by the writer once framed); the
// first chunk carries the content type. srvConn.enqueue settles payload
// ownership on failure, so only the slot needs returning here.
type srvChunkSink struct {
	sc      *srvConn
	stream  uint64
	ct      string
	started bool
}

//paylint:transfers
func (s *srvChunkSink) WriteChunk(p *core.Payload, last bool) error {
	select {
	case <-s.sc.chunkSlots:
	case <-s.sc.done:
		p.Release()
		s.sc.mu.Lock()
		err := s.sc.failed
		s.sc.mu.Unlock()
		return err
	}
	n := int64(p.Len())
	w := qframe{typ: fChunk, stream: s.stream, payload: p, first: !s.started, last: last}
	if !s.started {
		w.ct = s.ct
		s.started = true
	}
	if err := s.sc.enqueue(w); err != nil {
		putSlot(s.sc.chunkSlots)
		return err
	}
	s.sc.obs.Inc(obs.StreamChunksSent)
	s.sc.obs.GaugeAdd(obs.StreamBytesInFlight, n)
	return nil
}

// Abort ends a failed chunked response with RST(internal), so the client's
// decoder fails promptly instead of waiting for a last chunk that will
// never come. The connection stays healthy.
func (s *srvChunkSink) Abort() {
	s.sc.obs.Inc(obs.MuxResets)
	s.sc.obs.Event(obs.EvStreamReset, rstCodeName(RstInternal))
	s.sc.enqueue(qframe{typ: fRst, stream: s.stream, code: RstInternal, detail: "response streaming failed"})
}

var _ core.StreamBinding = (*Binding)(nil)
var _ core.ChunkSource = (*srvChunkSource)(nil)
var _ core.ChunkSink = (*srvChunkSink)(nil)
