package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"bxsoap/internal/obs"
)

// Handler processes one SOAP request envelope and produces the response.
// Returning a *Fault (as the error) sends that fault; any other error is
// wrapped into a soap:Server fault.
type Handler func(ctx context.Context, req *Envelope) (*Envelope, error)

// Server is the server side of the generic engine, composed from the same
// two policy axes as Engine. Configuration is fixed at NewServer time via
// options (WithErrorLog, WithObserver, WithTemplates); a constructed
// server carries no settable knobs, so there is nothing to race with Serve.
type Server[E Encoding, B ServerBinding] struct {
	// disp performs the transport-independent half of every exchange
	// (decode → mustUnderstand → handler → fault conversion → encode); the
	// server loop owns only the channel lifecycle around it. The same
	// dispatcher type serves transports with their own scheduling (see
	// internal/muxbind), so protocol behavior is defined exactly once.
	disp *Dispatcher[E]
	bind B
	obs  *obs.Observer

	// chunkBytes is the response window handed to Codec.EncodeChunks: zero
	// (no WithStreaming) encodes each response as one chunk.
	chunkBytes int

	// ctx is the server's lifetime context: handlers receive a context
	// derived from it, and Close cancels it, so in-flight handlers observe
	// shutdown instead of running under an unattached Background context.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	wg     sync.WaitGroup
	closed bool
	chans  map[Channel]struct{}

	errorLog *log.Logger
}

// NewServer composes a server from its policies, handler, and options.
func NewServer[E Encoding, B ServerBinding](enc E, bind B, h Handler, opts ...ServerOption) *Server[E, B] {
	var cfg serverConfig
	for _, opt := range opts {
		opt.applyServer(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server[E, B]{
		disp:       NewDispatcher(enc, h, opts...),
		bind:       bind,
		obs:        cfg.obs,
		chunkBytes: cfg.chunkBytes,
		ctx:        ctx,
		cancel:     cancel,
		chans:      make(map[Channel]struct{}),
		errorLog:   cfg.errorLog,
	}
}

// Encoding returns the server's encoding policy.
func (s *Server[E, B]) Encoding() E { return s.disp.Encoding() }

// Codec returns the server's serialization facade.
func (s *Server[E, B]) Codec() Codec[E] { return s.disp.Codec() }

// Dispatcher returns the server's transport-independent dispatch half.
func (s *Server[E, B]) Dispatcher() *Dispatcher[E] { return s.disp }

// Addr reports the bound transport address.
func (s *Server[E, B]) Addr() net.Addr { return s.bind.Addr() }

// Serve accepts channels until the binding is closed, dispatching each on
// its own goroutine. It returns nil after a clean Close.
func (s *Server[E, B]) Serve() error {
	errorLog := s.errorLog
	for {
		ch, err := s.bind.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			ch.Close()
			s.wg.Wait()
			return nil
		}
		s.chans[ch] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.chans, ch)
				s.mu.Unlock()
				ch.Close()
			}()
			if err := s.serveChannel(ch); err != nil && errorLog != nil {
				errorLog.Printf("soap: channel error: %v", err)
			}
		}()
	}
}

// serveChannel is the one channel loop: each request is decoded as its
// chunks arrive and each response is encoded straight into the channel's
// sink. Where the exchange is one chunk each way — the buffered exchange —
// nothing is copied or interleaved and the stages read as they always did
// (receive, decode, handler, encode, send); for longer messages
// ServerReceive marks the stream opening (bytes keep arriving through
// decode) and ServerSend covers the interleaved encode+send.
func (s *Server[E, B]) serveChannel(ch Channel) error {
	// Handlers run under the server's lifetime context: Close cancels it,
	// so a long-running handler sees shutdown instead of outliving it.
	ctx := s.ctx
	codec := s.disp.Codec()
	// The observed half of the loop lives in one allocation per channel,
	// made only when an observer is configured: without one the channel's
	// own source and sink are used as they come and the span stays on the
	// stack, so the nil-observer path allocates nothing of its own.
	var unobserved obs.Span
	sp := &unobserved
	var ob *observedExchange
	if s.obs != nil {
		ob = new(observedExchange)
		sp = &ob.sp
	}
	for {
		// The server hop starts before the read: the trace context arrives
		// inside the request, so dispatch binds it after decode. A hop whose
		// read fails (channel closed, peer gone) is abandoned unrecorded —
		// no request was handled.
		hop := s.obs.StartHop(obs.RoleServer)
		*sp = s.obs.SpanWith(hop)
		src, ct, err := ch.ReceiveRequest(ctx)
		sp.Mark(obs.ServerReceive)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if ob != nil {
			ob.rx = countingSource{src, s.obs}
			src = &ob.rx
		}
		out := s.disp.DispatchStream(ctx, src, ct, sp, hop)
		sink, err := ch.SendResponse(codec.ContentType())
		if err == nil {
			if ob != nil {
				ob.tx = responseSink{countingSink{sink, s.obs}, sp, false}
				sink = &ob.tx
			}
			if err = codec.EncodeChunks(out, s.chunkBytes, sink); err != nil {
				sink.Abort()
			}
		}
		sp.Mark(obs.ServerSend)
		s.obs.FinishHop(hop, err)
		if err != nil {
			return fmt.Errorf("send response: %w", err)
		}
	}
}

// observedExchange is the per-channel state of an observed server loop: the
// span of the exchange in progress and the counting wrappers around its
// source and sink, reused for every exchange on the channel.
type observedExchange struct {
	sp obs.Span
	rx countingSource
	tx responseSink
}

// responseSink keeps a one-chunk response's trace what a buffered one's
// always was: when the first chunk is also the last, the whole message was
// encoded before any of it was sent, so ServerEncode is marked at the
// hand-over — between encode and send. A longer response interleaves the
// two, and ServerSend covers both.
type responseSink struct {
	countingSink
	sp      *obs.Span
	started bool
}

//paylint:transfers
func (s *responseSink) WriteChunk(p *Payload, last bool) error {
	if last && !s.started {
		s.sp.Mark(obs.ServerEncode)
	}
	s.started = true
	return s.countingSink.WriteChunk(p, last)
}

// Close stops the server: it cancels the handler context, closes all live
// channels and the binding, and waits for channel goroutines to drain.
func (s *Server[E, B]) Close() error {
	s.cancel()
	s.mu.Lock()
	s.closed = true
	for ch := range s.chans {
		ch.Close()
	}
	s.mu.Unlock()
	err := s.bind.Close()
	s.wg.Wait()
	return err
}
