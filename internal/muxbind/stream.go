package muxbind

import (
	"io"
	"sync"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Chunked transfer over the mux (frame type CHUNK, see doc.go): one logical
// message flows as a run of flagged chunk frames on its stream, interleaved
// with other streams' traffic, so a multi-hundred-megabyte call neither
// materializes in memory nor blocks the connection for anyone else. Every
// message, on either side, is written through a sink and read through a
// source; a buffered message is the one-chunk case, framed as one DATA frame
// (see chunkFrame).
//
// Flow control stays at stream granularity — one credit per logical
// message, returned when the stream completes — and two mechanisms bound
// the bytes in flight inside one message:
//
//   - the sender side takes a session-wide pacing slot per queued CHUNK
//     frame (maxChunkSlots), returned when the frame hits the wire, so a
//     fast encoder cannot pile unbounded frames into the write queue;
//   - the receiver side queues at most recvChunkWindow chunks per stream;
//     a server stream that exceeds it is shed mid-message with
//     RST(overload) (the reader must never block on one slow consumer),
//     while the client relies on the engine's decoder draining promptly.
//
// Responses are chunked only in answer to requests that arrived as CHUNK
// frames and only when the server was configured with ChunkBytes
// (respond-in-kind); every other response is encoded whole.

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
	mu sync.Mutex
	// q[head:] is queued. The slice rewinds whenever it empties, so a
	// reused queue keeps its backing array.
	q     []chunkMsg
	head  int
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
	if limit > 0 && len(c.q)-c.head >= limit {
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
		if c.head < len(c.q) {
			m := c.q[c.head]
			c.q[c.head] = chunkMsg{}
			if c.head++; c.head == len(c.q) {
				c.q, c.head = c.q[:0], 0
			}
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
// are swallowed.
func (c *cstream) kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	for _, m := range c.q[c.head:] {
		m.payload.Release()
	}
	c.q, c.head = nil, 0
}

// srvSource yields one request to the dispatcher's decode: the message's
// first chunk, carried by its job, then — for a multi-chunk request — the
// rest off the stream's queue. Each worker owns one and reuses it from job
// to job, so a one-chunk request is served without a queue of its own.
type srvSource struct {
	sc      *srvConn
	stream  uint64
	first   *core.Payload
	st      *cstream // nil when first is the only chunk
	chunked bool     // arrived as CHUNK frames: counted as stream chunks
	done    bool
}

//paylint:returns owned
func (s *srvSource) ReadChunk() (*core.Payload, bool, error) {
	if s.done {
		return nil, false, io.EOF
	}
	p, last := s.first, s.st == nil
	if p != nil {
		s.first = nil
	} else {
		m, _ := s.st.pop(nil)
		if m.err != nil {
			s.done = true
			return nil, false, m.err
		}
		p, last = m.payload, m.last
	}
	if s.chunked {
		s.sc.obs.Inc(obs.StreamChunksReceived)
		s.sc.obs.GaugeAdd(obs.StreamBytesInFlight, -int64(p.Len()))
	}
	s.done = last
	return p, last, nil
}

// Abort detaches the decoder: the unread first chunk and any queued chunks
// are released, and chunks still arriving find no chunkRx entry, draining
// silently. The connection stays healthy — the faulting side already
// produced the response. Idempotent.
func (s *srvSource) Abort() {
	s.done = true
	s.first.Release()
	s.first = nil
	if s.st == nil {
		return
	}
	s.sc.mu.Lock()
	if s.sc.chunkRx[s.stream] == s.st {
		delete(s.sc.chunkRx, s.stream)
	}
	s.sc.mu.Unlock()
	s.st.kill()
}

// srvSink writes one response into the connection's write queue (see
// chunkFrame for the wire form). Each worker owns one and reuses it from
// job to job. srvConn.enqueue settles payload ownership on failure, so only
// a pacing slot needs returning here.
type srvSink struct {
	sc      *srvConn
	stream  uint64
	ct      string
	sp      *obs.Span
	started bool
}

//paylint:transfers
func (s *srvSink) WriteChunk(p *core.Payload, last bool) error {
	w := chunkFrame(s.stream, s.ct, p, !s.started, last)
	s.started = true
	if w.typ == fData {
		// The whole response was encoded before any of it was sent, so
		// the encode ends here, at the hand-over.
		s.sp.Mark(obs.ServerEncode)
	} else {
		select {
		case <-s.sc.chunkSlots:
		case <-s.sc.done:
			p.Release()
			s.sc.mu.Lock()
			err := s.sc.failed
			s.sc.mu.Unlock()
			return err
		}
	}
	n := int64(p.Len())
	if err := s.sc.enqueue(w); err != nil {
		if w.typ == fChunk {
			putSlot(s.sc.chunkSlots)
		}
		return err
	}
	if w.typ == fChunk {
		s.sc.obs.Inc(obs.StreamChunksSent)
		s.sc.obs.GaugeAdd(obs.StreamBytesInFlight, n)
	}
	return nil
}

// Abort ends a failed response with RST(internal), so the client fails
// promptly instead of waiting for a last chunk that will never come. The
// connection stays healthy.
func (s *srvSink) Abort() {
	s.sc.obs.Inc(obs.MuxResets)
	s.sc.obs.Event(obs.EvStreamReset, rstCodeName(RstInternal))
	s.sc.enqueue(qframe{typ: fRst, stream: s.stream, code: RstInternal, detail: "response encoding failed"})
}

var _ core.ChunkSource = (*srvSource)(nil)
var _ core.ChunkSink = (*srvSink)(nil)
