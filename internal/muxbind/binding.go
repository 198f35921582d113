package muxbind

import (
	"errors"
	"fmt"
	"sync"

	"context"

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
type Binding struct {
	tr *Transport

	// mu serializes the binding's one in-flight exchange end to end —
	// credit wait, stream open, response wait — mirroring tcpbind's
	// one-exchange-per-binding contract. Contention is bounded to this
	// binding's own Close/Poisoned; the shared hot structures (Transport,
	// Session) never block under their locks.
	//paylint:serializes-io single in-flight exchange per binding by contract
	mu       sync.Mutex
	sess     *Session
	streamID uint64
	resp     chan result
	// rxc is the in-flight streamed exchange's response queue (see
	// stream.go); resp and rxc are mutually exclusive.
	rxc      *cstream
	poisoned bool
}

// SendRequest implements core.Binding: it acquires a flow-control credit,
// opens a stream, and queues the request frame for the session's batching
// writer. The payload is borrowed per the Binding contract; because the
// write happens asynchronously, it is retained here and released by the
// writer once framed (or by the failure path), so the caller's pooled
// request stays valid for retries either way.
//
//paylint:borrows
func (b *Binding) SendRequest(ctx context.Context, payload *core.Payload, contentType string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.resp != nil || b.rxc != nil {
		return errors.New("muxbind: request already in flight")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sess, err := b.tr.session()
	if err != nil {
		return err
	}
	// One credit per stream: blocking here is the backpressure — when the
	// server's window is spent, new calls wait for completions instead of
	// piling frames onto the wire.
	select {
	case <-sess.credits:
	case <-ctx.Done():
		return ctx.Err()
	case <-sess.done:
		return sess.failure()
	}
	resp := make(chan result, 1)
	id, err := sess.open(resp, nil)
	if err != nil {
		return err
	}
	payload.Retain()
	if err := sess.enqueue(qframe{typ: fData, stream: id, payload: payload, ct: contentType}); err != nil {
		payload.Release()
		return err
	}
	b.sess, b.streamID, b.resp = sess, id, resp
	return nil
}

// ReceiveResponse implements core.Binding. Ownership of the returned
// payload transfers to the caller. Cancellation abandons only this stream —
// an RST(cancel) tells the server to stop, the shared session stays
// healthy — but still poisons this binding, matching the taxonomy's rule
// that an abandoned exchange never carries another call.
//
//paylint:returns owned
func (b *Binding) ReceiveResponse(ctx context.Context) (*core.Payload, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, "", fmt.Errorf("muxbind: %w", core.ErrBindingPoisoned)
	}
	if b.resp == nil {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", errors.New("muxbind: no request in flight")
	}
	sess, id, resp := b.sess, b.streamID, b.resp
	b.sess, b.streamID, b.resp = nil, 0, nil
	select {
	case r := <-resp:
		if r.err != nil {
			b.poisoned = true
			return nil, "", r.err
		}
		return r.payload, r.ct, nil
	case <-ctx.Done():
		sess.abandon(id, resp)
		b.poisoned = true
		return nil, "", ctx.Err()
	case <-sess.done:
		b.poisoned = true
		return nil, "", sess.failure()
	}
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
	if b.resp != nil {
		b.sess.abandon(b.streamID, b.resp)
		b.sess, b.streamID, b.resp = nil, 0, nil
	}
	if b.rxc != nil {
		b.sess.abandonChunked(b.streamID, b.rxc)
		b.sess, b.streamID, b.rxc = nil, 0, nil
	}
	b.poisoned = true
	return nil
}
