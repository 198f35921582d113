package muxbind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"bxsoap/internal/core"
)

// Binding is one logical client channel over the transport's shared
// sessions: it implements core.Binding, carrying one request/response
// exchange at a time as a stream on whichever session the transport
// assigns. Bindings hold no socket; a poisoned binding is discarded and
// replaced for free while the sessions underneath keep serving everyone
// else. That asymmetry is the point of the design: the transport-error
// taxonomy retires the logical channel (engine + binding) on failure
// exactly as with tcpbind, but the expensive resource — the connection —
// is only retired when the session itself dies.
//
// The exchange is implemented once, in chunk terms (SendRequestStream /
// ReceiveResponseStream and the sink and source they return);
// SendRequest and ReceiveResponse are its one-chunk case.
type Binding struct {
	tr *Transport

	// mu serializes the binding's one in-flight exchange end to end —
	// credit wait, stream open, response wait — mirroring tcpbind's
	// one-exchange-per-binding contract. Contention is bounded to this
	// binding's own Close/Poisoned; the shared hot structures (Transport,
	// Session) never block under their locks.
	//paylint:serializes-io single in-flight exchange per binding by contract
	mu sync.Mutex
	// sess and streamID name the exchange from open until its response
	// begins; nil sess means no request is in flight.
	sess     *Session
	streamID uint64
	poisoned bool

	// rx is the exchange's response queue, and sink and src are its two
	// ends. They live here so an exchange allocates nothing of its own:
	// a binding carries one exchange at a time, and every abnormal end
	// poisons it, so none of the three is reused while a session can still
	// route into it.
	rx   cstream
	sink muxSink
	src  muxSource
}

// drop (under mu) abandons the exchange in flight, if any, and retires
// the binding; the shared session stays healthy.
func (b *Binding) drop() {
	if b.sess != nil {
		b.sess.abandon(b.streamID, &b.rx)
		b.sess = nil
	}
	b.poisoned = true
}

// SendRequestStream implements core.StreamBinding: it opens a stream — one
// flow-control credit for the whole logical message. It takes a session,
// waits for the credit and registers the response queue under a fresh
// stream ID. Blocking on the credit is the backpressure — when the
// server's window is spent, new calls wait for completions instead of
// piling frames onto the wire. Nothing is written yet: the sink, whose
// chunks ride the session's batching writer, picks the wire form when it
// sees whether the first chunk is also the last.
func (b *Binding) SendRequestStream(ctx context.Context, contentType string) (core.ChunkSink, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.sess != nil {
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
	id, err := sess.open(&b.rx)
	if err != nil {
		return nil, err
	}
	b.sess, b.streamID = sess, id
	b.sink = muxSink{b: b, sess: sess, id: id, ct: contentType}
	return &b.sink, nil
}

// SendRequest implements core.Binding: the one-chunk request. The payload
// is borrowed per the Binding contract; because the write happens
// asynchronously, core.SendWhole retains it for the sink, and the writer
// releases it once framed (or the failure path does), so the caller's
// pooled request stays valid for retries either way.
//
//paylint:borrows
func (b *Binding) SendRequest(ctx context.Context, payload *core.Payload, contentType string) error {
	return core.SendWhole(ctx, b, payload, contentType)
}

// muxSink writes one request into the session's write queue, handing each
// chunk over with ownership (see chunkFrame for the wire form).
type muxSink struct {
	b       *Binding
	sess    *Session
	id      uint64
	ct      string
	started bool
}

//paylint:transfers
func (s *muxSink) WriteChunk(p *core.Payload, last bool) error {
	w := chunkFrame(s.id, s.ct, p, !s.started, last)
	s.started = true
	if w.typ == fChunk {
		select {
		case <-s.sess.chunkSlots:
		case <-s.sess.done:
			p.Release()
			return s.sess.failure()
		}
	}
	if err := s.sess.enqueue(w); err != nil {
		if w.typ == fChunk {
			putSlot(s.sess.chunkSlots)
		}
		p.Release()
		return err
	}
	return nil
}

// Abort abandons the request mid-message: RST(cancel) tells the server,
// the response stream is unregistered, and the binding is retired — the
// shared session stays healthy.
func (s *muxSink) Abort() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	s.b.drop()
}

// ReceiveResponseStream implements core.StreamBinding. It waits for the
// response's first chunk (which carries the content type) and returns a
// source for the rest; a DATA response is that one chunk. Cancellation
// abandons only this stream — an RST(cancel) tells the server to stop, the
// shared session stays healthy — but still poisons this binding, matching
// the taxonomy's rule that an abandoned exchange never carries another
// call.
func (b *Binding) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, "", fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.sess == nil {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", errors.New("muxbind: no request in flight")
	}
	m, ok := b.rx.pop(ctx.Done())
	if !ok {
		b.drop()
		return nil, "", ctx.Err()
	}
	sess, id := b.sess, b.streamID
	b.sess = nil
	if m.err != nil {
		b.poisoned = true
		return nil, "", m.err
	}
	b.src = muxSource{b: b, sess: sess, id: id, pending: m.payload, pendingLast: m.last}
	return &b.src, m.ct, nil
}

// ReceiveResponse implements core.Binding: the response as one payload the
// caller owns (see core.ReceiveWhole).
//
//paylint:returns owned
func (b *Binding) ReceiveResponse(ctx context.Context) (*core.Payload, string, error) {
	return core.ReceiveWhole(ctx, b)
}

// muxSource reads one response off the binding's queue. The first chunk
// was consumed by ReceiveResponseStream for its content type and is
// replayed from pending.
type muxSource struct {
	b           *Binding
	sess        *Session
	id          uint64
	pending     *core.Payload
	pendingLast bool
	done        bool
}

//paylint:returns owned
func (s *muxSource) ReadChunk() (*core.Payload, bool, error) {
	if s.done {
		return nil, false, io.EOF
	}
	if p := s.pending; p != nil {
		s.pending = nil
		s.done = s.pendingLast
		return p, s.pendingLast, nil
	}
	m, _ := s.b.rx.pop(nil)
	if m.err != nil {
		s.done = true
		s.b.mu.Lock()
		s.b.poisoned = true
		s.b.mu.Unlock()
		return nil, false, m.err
	}
	s.done = m.last
	return m.payload, m.last, nil
}

// Abort abandons the response mid-stream and retires the binding.
func (s *muxSource) Abort() {
	s.pending.Release()
	s.pending = nil
	s.done = true
	s.sess.abandon(s.id, &s.b.rx)
	s.b.mu.Lock()
	s.b.poisoned = true
	s.b.mu.Unlock()
}

// Poisoned reports whether the binding has been retired. A poisoned binding
// fails every subsequent operation with core.ErrBindingPoisoned.
func (b *Binding) Poisoned() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.poisoned
}

// Close implements core.Binding. It abandons any in-flight stream and
// retires the binding; the transport's sessions are shared and stay open.
func (b *Binding) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drop()
	return nil
}

var _ core.StreamBinding = (*Binding)(nil)
