package muxbind

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Config sizes the server's scheduling: unlike the goroutine-per-call
// core.Server, a mux server runs a fixed worker pool and sheds load it
// cannot queue, so capacity is an explicit decision instead of an emergent
// goroutine count.
type Config struct {
	// Workers is the dispatch pool size, shared across all connections
	// (default 4×GOMAXPROCS, min 8).
	Workers int
	// Queue is the dispatch queue depth. A message that arrives when the
	// queue is full is shed with RST(overload) instead of waiting
	// (default 8×Workers).
	Queue int
	// StreamCredit is the per-connection flow-control window: how many
	// streams one client connection may hold open at once (default 128).
	StreamCredit int
	// ChunkBytes, when positive, makes the server answer chunked requests
	// with chunked responses of roughly this window (respond-in-kind; see
	// stream.go). Zero answers everything buffered. Chunked requests are
	// accepted and decoded incrementally either way.
	ChunkBytes int
	// ErrorLog receives connection-level failures; nil silences them.
	ErrorLog *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4 * runtime.GOMAXPROCS(0)
		if c.Workers < 8 {
			c.Workers = 8
		}
	}
	if c.Queue <= 0 {
		c.Queue = 8 * c.Workers
	}
	if c.StreamCredit <= 0 {
		c.StreamCredit = 128
	}
	if c.StreamCredit > maxClientCredits {
		c.StreamCredit = maxClientCredits
	}
	return c
}

// job is one admitted stream waiting for (or on) a worker. The span/hop
// pair was started when the frame arrived, so the worker's first mark
// (ServerReceive) measures queue wait — the dispatcher's admission latency
// shows up in the same histogram stage that measures arrival spacing on the
// unmuxed server.
type job struct {
	sc      *srvConn
	stream  uint64
	first   *core.Payload // the request's first chunk
	st      *cstream      // the rest of a multi-chunk request; nil otherwise
	chunked bool          // the request arrived as CHUNK frames
	ct      string
	ctx     context.Context
	cancel  context.CancelFunc
	sp      obs.Span
	hop     *obs.Hop
}

// exchange is one worker's per-job state — the request source, the
// response sink and the span both mark into — reused from job to job, so
// serving a stream allocates nothing of its own.
type exchange struct {
	src  srvSource
	sink srvSink
	sp   obs.Span
}

// load points the exchange at job j.
func (x *exchange) load(j *job) {
	x.src = srvSource{sc: j.sc, stream: j.stream, first: j.first, st: j.st, chunked: j.chunked}
	x.sink = srvSink{sc: j.sc, stream: j.stream, sp: &x.sp}
	x.sp = j.sp
}

// Server is the multiplexed server: it accepts connections, demultiplexes
// their streams, and schedules every stream onto one bounded worker pool
// running the shared core.Dispatcher. Protocol behavior (decode,
// mustUnderstand, faults, trace binding) is identical to core.Server by
// construction — both drive the same dispatcher.
type Server[E core.Encoding] struct {
	disp *core.Dispatcher[E]
	cfg  Config
	obs  *obs.Observer

	jobs chan job
	// ctx is the handler-lifetime context; Close cancels it after the
	// connection readers stop, so in-flight handlers see shutdown.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	l        net.Listener
	conns    map[*srvConn]struct{}
	closed   bool
	workerWg sync.WaitGroup
	connWg   sync.WaitGroup
}

// NewServer composes a mux server from an encoding policy, a handler, a
// scheduling config, and the shared server options (WithObserver,
// WithUnderstood).
func NewServer[E core.Encoding](enc E, h core.Handler, cfg Config, opts ...core.ServerOption) *Server[E] {
	cfg = cfg.withDefaults()
	disp := core.NewDispatcher(enc, h, opts...)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server[E]{
		disp:   disp,
		cfg:    cfg,
		obs:    disp.Observer(),
		jobs:   make(chan job, cfg.Queue),
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[*srvConn]struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// Dispatcher returns the server's transport-independent dispatch half.
func (s *Server[E]) Dispatcher() *core.Dispatcher[E] { return s.disp }

// Serve accepts multiplexed connections on l until it is closed. It
// returns nil after a clean Close.
func (s *Server[E]) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil
	}
	s.l = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return &core.TransportError{Op: "mux accept", Err: err}
		}
		sc := newSrvConn(conn, s.jobs, s.ctx, s.cfg, s.obs)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[sc] = struct{}{}
		s.connWg.Add(2)
		s.mu.Unlock()
		go func() {
			defer s.connWg.Done()
			sc.readLoop()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
		}()
		go func() {
			defer s.connWg.Done()
			sc.writeLoop()
		}()
	}
}

// Close stops the server: listener first, then every connection, then —
// once no reader can enqueue — the worker pool, which drains and releases
// anything still queued.
func (s *Server[E]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.l
	conns := make([]*srvConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	for _, sc := range conns {
		sc.fail(net.ErrClosed)
	}
	s.connWg.Wait()
	s.cancel()
	s.workerWg.Wait()
	return err
}

// worker runs admitted streams through the dispatcher. Workers outlive
// connections: a dead connection's queued jobs still pass through here,
// where the closed conn makes them no-ops that release their payloads.
func (s *Server[E]) worker() {
	defer s.workerWg.Done()
	x := new(exchange)
	for {
		select {
		case j := <-s.jobs:
			s.serveJob(&j, x)
		case <-s.ctx.Done():
			// No readers remain (Close waits for them before cancelling),
			// so the queue can only drain.
			for {
				select {
				case j := <-s.jobs:
					x.load(&j)
					x.src.Abort()
					j.sc.finish(j.stream, j.cancel)
				default:
					return
				}
			}
		}
	}
}

// serveJob runs one admitted message through the shared dispatcher: the
// request is decoded off its source and the response encoded into the
// stream's sink — chunked at ChunkBytes when the request arrived chunked
// (respond-in-kind), whole otherwise.
func (s *Server[E]) serveJob(j *job, x *exchange) {
	defer j.sc.finish(j.stream, j.cancel)
	x.load(j)
	x.sp.Mark(obs.ServerReceive)
	if err := j.ctx.Err(); err != nil {
		// Cancelled while queued (client RST, shed or connection death):
		// the client is gone, so skip the dispatch entirely.
		x.src.Abort()
		s.obs.FinishHop(j.hop, err)
		return
	}
	resp := s.disp.DispatchStream(j.ctx, &x.src, j.ct, &x.sp, j.hop)
	if err := j.ctx.Err(); err != nil {
		// Cancelled during decode or the handler: the client abandoned the
		// stream, so the response has no reader worth a write.
		s.obs.FinishHop(j.hop, err)
		return
	}
	codec := s.disp.Codec()
	window := 0
	if j.chunked {
		window = s.cfg.ChunkBytes
	}
	x.sink.ct = codec.ContentType()
	err := codec.EncodeChunks(resp, window, &x.sink)
	if err != nil {
		x.sink.Abort()
		s.logStream(j.stream, err)
	} else {
		x.sp.Mark(obs.ServerSend)
	}
	s.obs.FinishHop(j.hop, err)
}

func (s *Server[E]) logStream(stream uint64, err error) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf("muxbind: stream %d: %v", stream, err)
	}
}

// srvConn is the server side of one multiplexed connection: a reader doing
// admission control, a writer batching responses and credit grants, and the
// live-stream table that links them.
type srvConn struct {
	conn net.Conn
	jobs chan<- job
	sctx context.Context
	cfg  Config
	obs  *obs.Observer

	// writeq capacity covers the worst conforming occupancy — one terminal
	// frame (DATA or RST) per window slot, plus one client-cancel RST per
	// slot, plus the chunk pacing window — so enqueue under mu never needs
	// to block; overflow means the peer is violating flow control and fails
	// the connection.
	writeq chan qframe
	// chunkSlots paces chunked responses exactly as the client session's
	// slots pace requests: one per queued CHUNK frame, returned at write.
	chunkSlots chan struct{}
	// credDue accumulates completed-stream credits between flushes; the
	// writer folds them into a single CREDIT frame per batch.
	credDue atomic.Int64
	kick    chan struct{}
	done    chan struct{}

	mu   sync.Mutex
	live map[uint64]context.CancelFunc
	// chunkRx routes inbound request chunks to their stream's decoder; the
	// read loop is the sole pusher.
	chunkRx  map[uint64]*cstream
	inflight int64
	failed   error
}

func newSrvConn(conn net.Conn, jobs chan<- job, sctx context.Context, cfg Config, o *obs.Observer) *srvConn {
	sc := &srvConn{
		conn:       conn,
		jobs:       jobs,
		sctx:       sctx,
		cfg:        cfg,
		obs:        o,
		writeq:     make(chan qframe, 2*cfg.StreamCredit+maxChunkSlots+8),
		chunkSlots: make(chan struct{}, maxChunkSlots),
		kick:       make(chan struct{}, 1),
		done:       make(chan struct{}),
		live:       make(map[uint64]context.CancelFunc),
		chunkRx:    make(map[uint64]*cstream),
	}
	for i := 0; i < maxChunkSlots; i++ {
		sc.chunkSlots <- struct{}{}
	}
	// Advertise the initial window; until this flushes the client holds
	// zero credits and cannot open a stream.
	sc.credDue.Store(int64(cfg.StreamCredit))
	sc.kickWriter()
	return sc
}

func (sc *srvConn) kickWriter() {
	select {
	case sc.kick <- struct{}{}:
	default:
	}
}

// fail retires the connection: classify and record the error, cancel every
// live stream's context, release everything queued, and close the socket.
// Idempotent.
//
//paylint:classifies
func (sc *srvConn) fail(err error) {
	sc.mu.Lock()
	if sc.failed != nil {
		sc.mu.Unlock()
		return
	}
	sc.failed = &core.TransportError{Op: "mux conn", Err: fmt.Errorf("muxbind: %w: %w", core.ErrBindingPoisoned, err)}
	close(sc.done)
	for id, cancel := range sc.live {
		delete(sc.live, id)
		cancel()
	}
	cvictims := make([]*cstream, 0, len(sc.chunkRx))
	for id, c := range sc.chunkRx {
		delete(sc.chunkRx, id)
		cvictims = append(cvictims, c)
	}
	sc.obs.GaugeAdd(obs.MuxStreams, -sc.inflight)
	sc.inflight = 0
	for {
		select {
		case w := <-sc.writeq:
			w.payload.Release()
			if w.typ == fChunk {
				putSlot(sc.chunkSlots)
			}
		default:
			sc.mu.Unlock()
			sc.conn.Close()
			// Streamed decoders drain their queued chunks, then see the
			// failure; their jobs complete through the usual worker path.
			for _, c := range cvictims {
				c.fail(sc.failed)
			}
			return
		}
	}
}

// enqueue hands a frame to the connection's writer; under mu so it cannot
// race fail's drain. On a dead connection the frame's payload is released
// here and a classified error returns.
func (sc *srvConn) enqueue(w qframe) error {
	sc.mu.Lock()
	if sc.failed != nil {
		err := sc.failed
		sc.mu.Unlock()
		w.payload.Release()
		return err
	}
	select {
	case sc.writeq <- w:
		sc.mu.Unlock()
		return nil
	default:
		sc.mu.Unlock()
		w.payload.Release()
		sc.fail(errors.New("write queue overflow: flow-control violation"))
		sc.mu.Lock()
		err := sc.failed
		sc.mu.Unlock()
		return err
	}
}

// finish retires a stream after its terminal frame is queued (or its
// connection died): it returns the flow-control credit and wakes the writer
// so the CREDIT grant rides the next flush.
func (sc *srvConn) finish(stream uint64, cancel context.CancelFunc) {
	cancel()
	sc.mu.Lock()
	if _, ok := sc.live[stream]; ok {
		delete(sc.live, stream)
		sc.inflight--
		sc.obs.GaugeAdd(obs.MuxStreams, -1)
	}
	dead := sc.failed != nil
	sc.mu.Unlock()
	if !dead {
		sc.credDue.Add(1)
		sc.kickWriter()
	}
}

// readLoop is the admission side: it demultiplexes inbound frames, enforces
// the flow-control window, and either schedules each stream onto the shared
// worker queue or sheds it with RST(overload) when the queue is full — the
// explicit refusal that replaces unbounded goroutine growth.
func (sc *srvConn) readLoop() {
	br := bufio.NewReaderSize(sc.conn, 64<<10)
	var fr frameReader
	for {
		f, err := fr.read(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
				sc.fail(io.EOF)
			} else {
				sc.fail(err)
				if sc.cfg.ErrorLog != nil {
					sc.cfg.ErrorLog.Printf("muxbind: read: %v", err)
				}
			}
			return
		}
		switch f.typ {
		case fData, fChunk:
			sc.obs.ChunkReceived(f.payload.Len(), f.last)
			if !f.first {
				sc.routeChunk(f)
			} else if !sc.admit(f) {
				return
			}
		case fRst:
			// Client abandoned the stream: cancel its handler context. The
			// worker still completes the stream (skipping the response), so
			// the credit flows back on the usual path. A streamed request's
			// decoder additionally gets the cancellation through its queue.
			sc.mu.Lock()
			if cancel, ok := sc.live[f.stream]; ok {
				cancel()
			}
			c := sc.chunkRx[f.stream]
			delete(sc.chunkRx, f.stream)
			sc.mu.Unlock()
			if c != nil {
				c.fail(&core.TransportError{Op: "mux stream", Err: context.Canceled})
			}
		default:
			// CREDIT and GOAWAY are server→client; a client sending one is
			// broken, and there is no stream to reset it on.
			sc.fail(fmt.Errorf("unexpected %#x frame from client", f.typ))
			return
		}
	}
}

// admit runs admission control for the frame that opens a logical message
// — a DATA frame, or a message's first CHUNK frame; the policy is the same,
// one flow-control credit per logical message. The job carries the first
// chunk; a message with more to come additionally registers its inbound
// chunk queue, so the read loop can route the rest while a worker decodes
// it incrementally. It reports false only when the connection itself was
// failed (protocol violation).
func (sc *srvConn) admit(f frame) bool {
	sc.mu.Lock()
	if sc.failed != nil {
		sc.mu.Unlock()
		f.payload.Release()
		return false
	}
	if _, dup := sc.live[f.stream]; dup {
		sc.mu.Unlock()
		f.payload.Release()
		sc.fail(fmt.Errorf("duplicate stream ID %d", f.stream))
		return false
	}
	if sc.inflight >= int64(sc.cfg.StreamCredit) {
		sc.mu.Unlock()
		f.payload.Release()
		sc.fail(fmt.Errorf("stream %d exceeds flow-control window %d", f.stream, sc.cfg.StreamCredit))
		return false
	}
	hop := sc.obs.StartHop(obs.RoleServer)
	sp := sc.obs.SpanWith(hop)
	ctx, cancel := context.WithCancel(sc.sctx)
	j := job{sc: sc, stream: f.stream, first: f.payload, chunked: f.typ == fChunk, ct: f.ct, ctx: ctx, cancel: cancel, sp: sp, hop: hop}
	if !f.last {
		j.st = newCstream()
	}
	select {
	case sc.jobs <- j:
		sc.live[f.stream] = cancel
		if j.st != nil {
			sc.chunkRx[f.stream] = j.st
		}
		sc.inflight++
		sc.obs.Inc(obs.MuxStreamsOpened)
		sc.obs.GaugeAdd(obs.MuxStreams, 1)
		sc.obs.GaugeObserve(obs.MuxStreamsPerConn, sc.inflight)
		sc.mu.Unlock()
		return true
	default:
	}
	// Queue full: shed. The stream completes immediately — payload
	// released, RST(overload) queued, credit returned — so a loaded server
	// answers "no" in one round trip instead of timing callers out. A shed
	// chunked message's remaining chunks find no chunkRx entry and drain
	// silently on arrival.
	sc.mu.Unlock()
	cancel()
	f.payload.Release()
	sc.obs.Inc(obs.MuxSheds)
	sc.obs.Event(obs.EvOverloadShed, fmt.Sprintf("stream %d", f.stream))
	if err := sc.enqueue(qframe{typ: fRst, stream: f.stream, code: RstOverload, detail: "dispatch queue full"}); err != nil {
		return false
	}
	sc.credDue.Add(1)
	sc.kickWriter()
	return true
}

// routeChunk delivers a continuation CHUNK frame to its stream's decoder.
// Chunks for unknown streams (shed, aborted, completed) are released
// silently, like late DATA frames. A stream whose queue exceeds
// recvChunkWindow is shed mid-message rather than blocking the connection
// reader: RST(overload) tells the client, the handler context is cancelled
// and the decoder sees the failure through the queue, and the job completes
// through the usual worker path, which returns the credit. The cancel comes
// before the queue fails, so the worker sees a cancelled stream and writes
// no second terminal frame.
func (sc *srvConn) routeChunk(f frame) {
	sc.mu.Lock()
	st, ok := sc.chunkRx[f.stream]
	if ok && f.last {
		delete(sc.chunkRx, f.stream)
	}
	sc.mu.Unlock()
	if !ok {
		f.payload.Release()
		return
	}
	if st.push(chunkMsg{payload: f.payload, last: f.last}, recvChunkWindow) {
		return
	}
	f.payload.Release()
	sc.mu.Lock()
	delete(sc.chunkRx, f.stream)
	cancel := sc.live[f.stream]
	sc.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	st.fail(&core.TransportError{Op: "mux stream", Err: fmt.Errorf("muxbind: stream %d exceeds receive window %d", f.stream, recvChunkWindow)})
	sc.obs.Inc(obs.MuxSheds)
	sc.obs.Event(obs.EvOverloadShed, fmt.Sprintf("stream %d chunk window", f.stream))
	sc.enqueue(qframe{typ: fRst, stream: f.stream, code: RstOverload, detail: "receive window full"})
}

// writeLoop drains the write queue, coalescing every ready frame plus one
// accumulated CREDIT grant into a single flush.
func (sc *srvConn) writeLoop() {
	bw := bufio.NewWriterSize(sc.conn, 64<<10)
	for {
		select {
		case w := <-sc.writeq:
			w.write(bw, sc.obs, sc.chunkSlots)
			for more := true; more; {
				select {
				case w := <-sc.writeq:
					w.write(bw, sc.obs, sc.chunkSlots)
				default:
					more = false
				}
			}
		case <-sc.kick:
		case <-sc.done:
			return
		}
		if n := sc.credDue.Swap(0); n > 0 {
			writeCredit(bw, uint64(n))
		}
		if err := bw.Flush(); err != nil {
			sc.fail(err)
			return
		}
	}
}
