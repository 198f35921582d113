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

// result is one stream's terminal outcome, delivered exactly once on the
// stream's response channel: a payload (ownership transfers to the waiting
// binding) or an error (RST, session death).
type result struct {
	payload *core.Payload
	ct      string
	err     error
}

// Session is one multiplexed connection: a reader goroutine demultiplexing
// inbound frames to per-stream channels, a writer goroutine coalescing
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

	mu      sync.Mutex
	streams map[uint64]chan result
	// chunkStreams routes inbound response chunks for streamed exchanges.
	// The reader is the sole pusher; the stream is removed when its last
	// chunk (or terminal error) is routed.
	chunkStreams map[uint64]*cstream
	nextID       uint64
	active       int64
	failed       error
}

func newSession(conn net.Conn, o *obs.Observer) *Session {
	s := &Session{
		conn:         conn,
		obs:          o,
		writeq:       make(chan qframe, 2*maxClientCredits+maxChunkSlots+8),
		credits:      make(chan struct{}, maxClientCredits),
		chunkSlots:   make(chan struct{}, maxChunkSlots),
		done:         make(chan struct{}),
		streams:      make(map[uint64]chan result),
		chunkStreams: make(map[uint64]*cstream),
		nextID:       1,
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
//paylint:nonblocking removing a stream from the map commits this goroutine as the sole sender on its one-slot channel
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
	victims := make([]chan result, 0, len(s.streams))
	for id, ch := range s.streams {
		delete(s.streams, id)
		victims = append(victims, ch)
	}
	cvictims := make([]*cstream, 0, len(s.chunkStreams))
	for id, c := range s.chunkStreams {
		delete(s.chunkStreams, id)
		cvictims = append(cvictims, c)
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
	// Deliver the terminal error outside the lock. Taking each stream out
	// of the map above made this goroutine the sole sender on its
	// one-result channel, so these sends cannot block — and a slow waiter
	// can no longer stall everyone contending for mu.
	for _, ch := range victims {
		ch <- result{err: failed}
	}
	// Chunk streams get the error through their own queue: the consumer
	// drains any chunks already routed, then surfaces the failure.
	for _, c := range cvictims {
		c.fail(failed)
	}
}

// close shuts the session down (transport closing). In-flight streams fail
// with a classified error.
func (s *Session) close() error {
	s.fail("mux close", net.ErrClosed)
	return nil
}

// open registers a new stream under a fresh ID: a buffered exchange waits
// for its one result on ch, a streamed one queues response chunks on c
// (exactly one of the two is non-nil). The caller must already hold a
// credit.
func (s *Session) open(ch chan result, c *cstream) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	id := s.nextID
	s.nextID++
	if c != nil {
		s.chunkStreams[id] = c
	} else {
		s.streams[id] = ch
	}
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

// abandon ends the caller's interest in a stream (cancellation). If the
// result already arrived it is drained and released; otherwise the stream
// is unregistered and a best-effort RST(cancel) tells the server to stop.
func (s *Session) abandon(id uint64, ch chan result) {
	s.mu.Lock()
	if _, ok := s.streams[id]; ok {
		delete(s.streams, id)
		s.active--
		s.obs.GaugeAdd(obs.MuxStreams, -1)
		if s.failed == nil {
			select {
			case s.writeq <- qframe{typ: fRst, stream: id, code: RstCancel, detail: "context cancelled"}:
			default:
			}
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	// The stream is already out of the map, so deliver or fail committed to
	// sending exactly one terminal result — but the send happens outside
	// mu, so it may not have landed yet. Wait for it (guaranteed and
	// prompt) instead of racing it and leaking the payload.
	r := <-ch
	r.payload.Release()
}

// deliver routes a terminal result to its stream's waiter, releasing the
// payload of results for streams nobody waits on anymore (abandoned, then
// answered).
func (s *Session) deliver(id uint64, r result) {
	s.mu.Lock()
	ch, ok := s.streams[id]
	if ok {
		delete(s.streams, id)
		s.active--
		s.obs.GaugeAdd(obs.MuxStreams, -1)
	}
	var c *cstream
	if !ok {
		if cc, cok := s.chunkStreams[id]; cok {
			delete(s.chunkStreams, id)
			s.active--
			s.obs.GaugeAdd(obs.MuxStreams, -1)
			c = cc
		}
	}
	s.mu.Unlock()
	if c != nil {
		// A terminal frame for a streamed exchange: an RST fails the
		// stream's queue; a DATA frame is a buffered peer's whole response
		// (the fallback matrix's buffered-response cell), surfaced as one
		// final chunk.
		if r.err != nil {
			c.fail(r.err)
		} else {
			c.push(chunkMsg{payload: r.payload, ct: r.ct, last: true}, 0)
		}
		return
	}
	if !ok {
		r.payload.Release()
		return
	}
	// Send outside the lock: removing the stream from the map above made
	// this goroutine the sole sender on the one-result channel, so the
	// send cannot block, and the reader no longer holds every other
	// stream's registrations hostage while handing one result over.
	ch <- r
}

// deliverChunk routes one inbound response chunk. Chunks for unknown
// streams are released silently — they trail an abandoned or failed
// exchange, exactly like a late DATA frame.
func (s *Session) deliverChunk(f frame) {
	s.mu.Lock()
	c, ok := s.chunkStreams[f.stream]
	if ok && f.last {
		delete(s.chunkStreams, f.stream)
		s.active--
		s.obs.GaugeAdd(obs.MuxStreams, -1)
	}
	s.mu.Unlock()
	if !ok {
		f.payload.Release()
		return
	}
	c.push(chunkMsg{payload: f.payload, ct: f.ct, last: f.last}, 0)
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
// the receive side: every DATA payload it reads is either handed to the
// stream's waiter (ownership transfers through the result channel) or
// released here.
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
		case fData:
			s.obs.ChunkReceived(f.payload.Len(), true)
			s.deliver(f.stream, result{payload: f.payload, ct: f.ct})
		case fChunk:
			s.obs.ChunkReceived(f.payload.Len(), f.last)
			s.deliverChunk(f)
		case fRst:
			s.obs.Inc(obs.MuxResets)
			s.obs.Event(obs.EvStreamReset, rstCodeName(f.code))
			s.deliver(f.stream, result{err: rstError(f.code, f.detail)})
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
