package muxbind

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// ErrOverloaded marks a stream the server shed under admission control: the
// request was never dispatched, so retrying it (on this or any transport)
// is safe. It always arrives wrapped in a core.TransportError, so pooled
// retry logic already treats it as retryable; errors.Is against this
// sentinel distinguishes "server full" from "wire broke".
var ErrOverloaded = errors.New("muxbind: server overloaded")

// maxClientCredits caps how many unconsumed flow-control tokens a session
// banks. Grants beyond the cap are dropped (lowering effective concurrency,
// never correctness): the cap is what lets the write queue be sized so that
// enqueueing — bounded by open streams, which are bounded by consumed
// credits — can never block against a well-behaved server.
const maxClientCredits = 1024

// Session is one multiplexed connection: a reader goroutine demultiplexing
// inbound frames to per-stream queues, a writer goroutine coalescing
// outbound frames into batched flushes, and a credit account replenished by
// the server's CREDIT frames.
type Session struct {
	conn net.Conn
	obs  *obs.Observer

	// writeq feeds the writer goroutine. Its capacity covers the worst
	// legal occupancy — one DATA plus one RST per open stream, and open
	// streams are bounded by maxClientCredits — so enqueue never blocks; a
	// full queue therefore indicates a flow-control violation and fails
	// the session rather than wedging a caller.
	writeq chan qframe
	// credits holds banked flow-control tokens; opening a stream consumes
	// one, CREDIT frames replenish.
	credits chan struct{}
	// chunkSlots paces chunked sends: writing a CHUNK frame to the queue
	// takes a slot, the writer returns it once the frame is on the wire, so
	// at most maxChunkSlots chunks sit queued per session regardless of how
	// many streamed messages share it (see maxChunkSlots).
	chunkSlots chan struct{}
	done       chan struct{}

	mu sync.Mutex
	// queues routes inbound response frames to their stream's queue. The
	// reader is the sole pusher; the stream is removed when its last chunk
	// (or terminal error) is routed.
	queues map[uint64]*cstream
	nextID uint64
	active int64
	failed error
}

func newSession(conn net.Conn, o *obs.Observer) *Session {
	s := &Session{
		conn:       conn,
		obs:        o,
		writeq:     make(chan qframe, 2*maxClientCredits+maxChunkSlots+8),
		credits:    make(chan struct{}, maxClientCredits),
		chunkSlots: make(chan struct{}, maxChunkSlots),
		done:       make(chan struct{}),
		queues:     make(map[uint64]*cstream),
		nextID:     1,
	}
	for i := 0; i < maxChunkSlots; i++ {
		s.chunkSlots <- struct{}{}
	}
	go s.readLoop()
	go s.writeLoop()
	return s
}

func (s *Session) dead() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// failure returns the session's terminal error (classified), or a generic
// closed error if the session was shut down cleanly.
func (s *Session) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	return &core.TransportError{Op: "mux session", Err: net.ErrClosed}
}

// fail retires the session: it records the classified error, closes the
// connection and the done channel, delivers the error to every registered
// stream, and drains the write queue. Idempotent; only the first caller's
// error sticks. Any frame-level failure must come through here — a partial
// write or a desynchronized read poisons the whole connection, exactly as
// in tcpbind, except that here one connection's death fails every stream
// multiplexed onto it.
//
//paylint:classifies
func (s *Session) fail(op string, err error) {
	s.mu.Lock()
	if s.failed != nil {
		s.mu.Unlock()
		return
	}
	failed := &core.TransportError{Op: op, Err: fmt.Errorf("muxbind: %w: %w", core.ErrBindingPoisoned, err)}
	s.failed = failed
	close(s.done)
	s.conn.Close()
	victims := make([]*cstream, 0, len(s.queues))
	for id, c := range s.queues {
		delete(s.queues, id)
		victims = append(victims, c)
	}
	s.obs.GaugeAdd(obs.MuxStreams, -s.active)
	s.active = 0
	// Senders hold mu to enqueue and check failed first, so no new frames
	// can race this drain; release whatever the writer had not reached.
	for drained := false; !drained; {
		select {
		case w := <-s.writeq:
			w.payload.Release()
			if w.typ == fChunk {
				putSlot(s.chunkSlots)
			}
		default:
			drained = true
		}
	}
	s.mu.Unlock()
	// Each stream gets the error through its own queue, outside the lock:
	// the consumer drains any chunks already routed, then surfaces the
	// failure.
	for _, c := range victims {
		c.fail(failed)
	}
}

// close shuts the session down (transport closing). In-flight streams fail
// with a classified error.
func (s *Session) close() error {
	s.fail("mux close", net.ErrClosed)
	return nil
}

// open registers a new stream under a fresh ID whose response frames are
// routed to c. The caller must already hold a credit.
func (s *Session) open(c *cstream) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	id := s.nextID
	s.nextID++
	s.queues[id] = c
	s.active++
	s.obs.Inc(obs.MuxStreamsOpened)
	s.obs.GaugeAdd(obs.MuxStreams, 1)
	s.obs.GaugeObserve(obs.MuxStreamsPerConn, s.active)
	return id, nil
}

// enqueue hands a frame to the writer. Under mu so it cannot race fail's
// drain: after fail wins, the error returns here and the caller keeps
// ownership of any payload it retained.
func (s *Session) enqueue(w qframe) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	select {
	case s.writeq <- w:
		return nil
	default:
		// The occupancy bound (see writeq) makes this unreachable against
		// a conforming peer; treat it as the flow-control violation it is.
		s.mu.Unlock()
		s.fail("mux write queue", errors.New("write queue overflow: flow-control violation"))
		s.mu.Lock()
		return s.failed
	}
}

// abandon ends the caller's interest in a stream: the stream is
// unregistered, its queue drained, and a best-effort RST(cancel) tells the
// server to stop.
func (s *Session) abandon(id uint64, c *cstream) {
	s.mu.Lock()
	if _, ok := s.queues[id]; ok {
		delete(s.queues, id)
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

// deliver routes one inbound response frame to its stream's queue: a
// chunk or a terminal error. Frames for unknown streams trail an abandoned or
// failed exchange and are released silently.
func (s *Session) deliver(id uint64, m chunkMsg) {
	s.mu.Lock()
	c, ok := s.queues[id]
	if ok && (m.last || m.err != nil) {
		delete(s.queues, id)
		s.active--
		s.obs.GaugeAdd(obs.MuxStreams, -1)
	}
	s.mu.Unlock()
	switch {
	case !ok:
		m.payload.Release()
	case m.err != nil:
		c.fail(m.err)
	default:
		c.push(m, 0)
	}
}

// rstError classifies a received RST into the transport-error taxonomy.
// Overload sheds additionally wrap ErrOverloaded so callers can tell
// "server full, retry later" from a broken wire; both poison only the
// logical stream's binding, never the shared session.
func rstError(code uint64, detail string) error {
	if code == RstOverload {
		return &core.TransportError{Op: "mux stream", Err: fmt.Errorf("%w: stream shed: %s", ErrOverloaded, detail)}
	}
	return &core.TransportError{Op: "mux stream", Err: fmt.Errorf("muxbind: stream reset (%s): %s", rstCodeName(code), detail)}
}

// readLoop demultiplexes inbound frames until the connection dies. It owns
// the receive side: every payload it reads is either handed to the
// stream's queue (ownership transfers with the chunk) or released here.
func (s *Session) readLoop() {
	br := bufio.NewReaderSize(s.conn, 64<<10)
	var fr frameReader
	for {
		f, err := fr.read(br)
		if err != nil {
			s.fail("mux read", err)
			return
		}
		switch f.typ {
		case fData, fChunk:
			s.obs.ChunkReceived(f.payload.Len(), f.last)
			s.deliver(f.stream, chunkMsg{payload: f.payload, ct: f.ct, last: f.last})
		case fRst:
			s.obs.Inc(obs.MuxResets)
			s.obs.Event(obs.EvStreamReset, rstCodeName(f.code))
			s.deliver(f.stream, chunkMsg{err: rstError(f.code, f.detail)})
		case fCredit:
			for i := uint64(0); i < f.credit; i++ {
				select {
				case s.credits <- struct{}{}:
				default:
					// Bank full: drop the token (see maxClientCredits).
					i = f.credit
				}
			}
		case fGoaway:
			s.fail("mux goaway", fmt.Errorf("server going away (%s): %s", rstCodeName(f.code), f.detail))
			return
		}
	}
}

// writeLoop drains the write queue into the connection, coalescing every
// frame ready at flush time into one syscall — the batching that lets many
// small concurrent requests share a write (and, over netsim, a turnaround).
func (s *Session) writeLoop() {
	bw := bufio.NewWriterSize(s.conn, 64<<10)
	for {
		select {
		case w := <-s.writeq:
			w.write(bw, s.obs, s.chunkSlots)
			for more := true; more; {
				select {
				case w := <-s.writeq:
					w.write(bw, s.obs, s.chunkSlots)
				default:
					more = false
				}
			}
			if err := bw.Flush(); err != nil {
				s.fail("mux write", err)
				return
			}
		case <-s.done:
			return
		}
	}
}
