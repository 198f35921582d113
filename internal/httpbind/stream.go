package httpbind

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// The client's exchange, implemented once in chunk terms (SendRequestStream
// / ReceiveResponseStream and the sink and source they return);
// SendRequest and ReceiveResponse are its one-chunk case. The sink picks
// the request's wire form at its first chunk, as tcpbind's frame writer
// does: a first chunk that is also the last is a Content-Length POST, sent
// by client.Do on a replayable body; anything longer is a POST with no
// Content-Length (net/http switches to chunked transfer encoding) whose
// body is a pipe fed chunk by chunk while client.Do runs in a goroutine.
// Both kinds of body reach the server channel's one source, and a response
// of either kind reaches the client's, so no capability negotiation is
// needed.

// doResult is the outcome of the background POST carrying a chunked
// request.
type doResult struct {
	resp *http.Response
	err  error
}

// SendRequestStream implements core.StreamBinding. Nothing is sent yet:
// the sink chooses the wire form when it sees whether the first chunk is
// the last.
func (b *Binding) SendRequestStream(ctx context.Context, contentType string) (core.ChunkSink, error) {
	b.mu.Lock()
	if b.poisoned {
		b.mu.Unlock()
		return nil, fmt.Errorf("httpbind: %w", core.ErrBindingPoisoned)
	}
	if b.respc != nil {
		b.mu.Unlock()
		return nil, errors.New("httpbind: request already in flight")
	}
	b.mu.Unlock()
	if b.proto == nil {
		return nil, fmt.Errorf("httpbind: invalid URL %q", b.url)
	}
	// Rewrite the reused header map only when a value actually changed, so
	// steady-state requests touch no header storage at all.
	if b.header.Get("Content-Type") != contentType {
		b.header.Set("Content-Type", contentType)
	}
	if b.header.Get("SOAPAction") != b.actionHdr {
		b.header.Set("SOAPAction", b.actionHdr)
	}
	b.sink = cliSink{b: b, ctx: ctx}
	return &b.sink, nil
}

// SendRequest implements core.Binding: the one-chunk request. The payload
// is borrowed; the body wrapper retains it for as long as net/http needs it.
//
//paylint:borrows
func (b *Binding) SendRequest(ctx context.Context, payload *core.Payload, contentType string) error {
	return core.SendWhole(ctx, b, payload, contentType)
}

// post sends a whole request synchronously: client.Do returns with the
// response headers, which ReceiveResponseStream then collects.
//
//paylint:borrows
func (b *Binding) post(ctx context.Context, p *core.Payload) error {
	req := b.proto.WithContext(ctx)
	req.Body = newPayloadBody(p)
	req.ContentLength = int64(p.Len())
	req.GetBody = func() (io.ReadCloser, error) { return newPayloadBody(p), nil }
	resp, err := b.client.Do(req)
	if err != nil {
		return &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: POST %s: %w", b.url, err)}
	}
	b.mu.Lock()
	if b.pending != nil {
		b.pending.Body.Close()
	}
	b.pending = resp
	b.mu.Unlock()
	b.obs.ChunkSent(p.Len(), true)
	return nil
}

// postChunked starts a chunked request: the body is an unbuffered pipe, so
// a write blocks until net/http has drained the bytes toward the wire,
// which is the send-side memory bound. client.Do runs in a goroutine (it
// returns only when response headers arrive, which may be after the full
// request is consumed); ReceiveResponseStream collects its outcome.
func (b *Binding) postChunked(ctx context.Context) *io.PipeWriter {
	pr, pw := io.Pipe()
	req := b.proto.WithContext(ctx)
	req.Body = pr
	req.ContentLength = -1
	respc := make(chan doResult, 1)
	go func() {
		resp, err := b.client.Do(req)
		if err != nil {
			// Unblock a sink still writing into the dead request.
			pr.CloseWithError(err)
		}
		respc <- doResult{resp: resp, err: err}
	}()
	b.mu.Lock()
	b.respc = respc
	b.mu.Unlock()
	return pw
}

// cliSink writes one request: whole, or into the chunked POST's body pipe.
type cliSink struct {
	b *Binding
	// ctx is the exchange's: the POST is issued at the first chunk, after
	// SendRequestStream has returned.
	ctx  context.Context
	pw   *io.PipeWriter // the chunked POST's body, once its first chunk is out
	done bool           // the last chunk has been handed over
}

//paylint:transfers
func (s *cliSink) WriteChunk(p *core.Payload, last bool) error {
	defer p.Release()
	if s.pw == nil && last {
		// Whatever client.Do returns, nothing is left in flight for Abort.
		s.done = true
		return s.b.post(s.ctx, p)
	}
	if s.pw == nil {
		s.pw = s.b.postChunked(s.ctx)
	}
	_, err := s.pw.Write(p.Bytes())
	if err == nil && last {
		err = s.pw.Close()
	}
	if err != nil {
		return &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: %w", err)}
	}
	s.done = last
	s.b.obs.ChunkSent(p.Len(), last)
	return nil
}

// Abort breaks the request off before its last chunk: net/http aborts a
// chunked POST, the server's decoder fails on the truncated stream, and
// the binding is retired. Once the last chunk is handed over it is a no-op.
func (s *cliSink) Abort() {
	if s.done {
		return
	}
	s.done = true
	if s.pw != nil {
		s.pw.CloseWithError(errors.New("httpbind: request aborted"))
	}
	s.b.retire()
}

// discard lets an abandoned chunked POST's goroutine finish against its
// broken pipe and closes whatever response it produced.
func discard(respc chan doResult) {
	if respc == nil {
		return
	}
	go func() {
		if r := <-respc; r.resp != nil {
			r.resp.Body.Close()
		}
	}()
}

// ReceiveResponseStream implements core.StreamBinding: it takes the
// response to the request in flight — waiting for a chunked POST's headers
// — reads its first chunk and returns a source for the body.
func (b *Binding) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	b.mu.Lock()
	resp, respc, poisoned := b.pending, b.respc, b.poisoned
	b.pending, b.respc = nil, nil
	b.mu.Unlock()
	if poisoned {
		return nil, "", fmt.Errorf("httpbind: %w", core.ErrBindingPoisoned)
	}
	if resp == nil && respc == nil {
		return nil, "", errors.New("httpbind: no request in flight")
	}
	if resp == nil {
		select {
		case r := <-respc:
			if r.err != nil {
				return nil, "", &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: POST %s: %w", b.url, r.err)}
			}
			resp = r.resp
		case <-ctx.Done():
			b.retire()
			discard(respc)
			return nil, "", ctx.Err()
		}
	}
	// SOAP 1.1 over HTTP uses 500 for fault responses; both 200 and 500
	// carry SOAP envelopes.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		resp.Body.Close()
		return nil, "", fmt.Errorf("httpbind: unexpected HTTP status %s", resp.Status)
	}
	b.src = bodySource{body: resp.Body, length: resp.ContentLength, obs: b.obs, b: b}
	if err := b.src.open(); err != nil {
		return nil, "", err
	}
	return &b.src, resp.Header.Get("Content-Type"), nil
}

// ReceiveResponse implements core.Binding: the response as one payload the
// caller owns — the body itself when it had a declared length (see
// core.ReceiveWhole).
//
//paylint:returns owned
func (b *Binding) ReceiveResponse(ctx context.Context) (*core.Payload, string, error) {
	return core.ReceiveWhole(ctx, b)
}

// retire poisons the binding and lets go of a chunked POST in flight: a
// request or response abandoned part way leaves its HTTP connection
// unusable, so the binding must never carry another exchange.
func (b *Binding) retire() {
	b.mu.Lock()
	b.poisoned = true
	respc := b.respc
	b.respc = nil
	b.mu.Unlock()
	discard(respc)
	b.client.CloseIdleConnections()
}

// streamWindow sizes the receive-side slices of a body of undeclared
// length. It bounds per-chunk pooled allocation, not the message.
const streamWindow = 64 << 10

// bodySource yields an HTTP body as chunks: a request's on the server, a
// response's on the client. A body of declared length is one chunk, read
// into a pooled payload of exactly that size — the message as its sender
// framed it; a body of undeclared length (chunked transfer encoding) is
// sliced into windows as it arrives. HTTP does not preserve the sender's
// chunk boundaries, which the chunk contract permits: chunks are arbitrary
// windows of one message and every streaming decoder is boundary-agnostic.
// The first chunk is read when the exchange opens, so a failed read
// surfaces there.
type bodySource struct {
	body   io.ReadCloser
	length int64 // declared length, or -1
	obs    *obs.Observer
	// b is the client binding whose response this is, nil on the server.
	// The client closes the body when done, and a failed or abandoned read
	// retires the binding; on the server net/http settles the request body
	// when the handler returns, and the response side still works (the
	// dispatcher answers an undecodable request with a fault).
	b     *Binding
	first *core.Payload // read by open, not yet consumed
	done  bool          // the last chunk has been read off the body
}

// open reads the first chunk.
func (s *bodySource) open() error {
	p, _, err := s.read()
	s.first = p
	return err
}

//paylint:returns owned
func (s *bodySource) read() (*core.Payload, bool, error) {
	var p *core.Payload
	var err error
	last := true
	if s.length >= 0 {
		p, err = core.ReadPayload(s.body, s.length, 0)
	} else if p, last, err = core.ReadPayloadWindow(s.body, streamWindow); err == io.EOF {
		// Clean end with no pending bytes: the chunk contract wants an
		// explicit last chunk, so emit an empty one.
		p, last, err = core.NewPayload(0), true, nil
	}
	if err != nil {
		s.end(true)
		op := "read request"
		if s.b != nil {
			op = "receive response"
		}
		return nil, false, &core.TransportError{Op: op, Err: fmt.Errorf("httpbind: %w", err)}
	}
	if last {
		s.end(false)
	}
	s.obs.ChunkReceived(p.Len(), last)
	return p, last, nil
}

// end marks the body finished, after its last chunk or a failure.
func (s *bodySource) end(failed bool) {
	s.done = true
	if s.b == nil {
		return
	}
	s.body.Close()
	if failed {
		s.b.retire()
	}
}

//paylint:returns owned
func (s *bodySource) ReadChunk() (*core.Payload, bool, error) {
	if p := s.first; p != nil {
		s.first = nil
		return p, s.done, nil
	}
	if s.done {
		return nil, false, io.EOF
	}
	return s.read()
}

// Abort stops consuming the body. Once the last chunk is read it only
// releases an unconsumed first chunk.
func (s *bodySource) Abort() {
	s.first.Release()
	s.first = nil
	if !s.done {
		s.end(true)
	}
}

var _ core.StreamBinding = (*Binding)(nil)
