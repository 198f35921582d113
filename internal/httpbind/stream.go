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

// The client's streamed face. Chunked transfer over HTTP/1.1 rides the
// protocol's own framing: a streamed request is a POST with no
// Content-Length (net/http switches to chunked transfer encoding). HTTP
// does not preserve chunk boundaries — the peer's decoder sees the same
// byte stream re-sliced into streamWindow-sized pieces — which the chunk
// contract explicitly permits: chunks are arbitrary windows of one message,
// and every streaming decoder is boundary-agnostic. The fallback matrix is
// automatic: either kind of body reaches the server channel's one source,
// and this side slices a Content-Length response into windows, so no
// capability negotiation is needed. (The buffered face in httpbind.go stays
// a separate mechanism — client.Do on a replayable body versus a pipe fed
// from a goroutine; see DESIGN.md "kept twins".)

// doResult is the outcome of the background POST carrying a streamed
// request.
type doResult struct {
	resp *http.Response
	err  error
}

// SendRequestStream implements core.StreamBinding. The request body is an
// unbuffered pipe: WriteChunk blocks until net/http has drained the bytes
// toward the wire, which is the send-side memory bound. client.Do runs in a
// goroutine (it returns only when response headers arrive, which may be
// after the full request is consumed); ReceiveResponseStream collects its
// outcome.
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.header.Get("Content-Type") != contentType {
		b.header.Set("Content-Type", contentType)
	}
	if b.header.Get("SOAPAction") != b.actionHdr {
		b.header.Set("SOAPAction", b.actionHdr)
	}
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
	return &cliSink{b: b, pw: pw}, nil
}

// cliSink feeds request chunks into the POST body pipe.
type cliSink struct {
	b  *Binding
	pw *io.PipeWriter
}

//paylint:transfers
func (s *cliSink) WriteChunk(p *core.Payload, last bool) error {
	_, err := s.pw.Write(p.Bytes())
	n := p.Len()
	p.Release()
	if err != nil {
		return &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: %w", err)}
	}
	s.b.obs.Add(obs.BytesSent, uint64(n))
	if last {
		if err := s.pw.Close(); err != nil {
			return &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: %w", err)}
		}
		s.b.obs.Inc(obs.MessagesSent)
	}
	return nil
}

// Abort breaks the request body mid-message: net/http aborts the POST, the
// server's decoder fails on the truncated stream, and the binding is
// retired.
func (s *cliSink) Abort() {
	s.pw.CloseWithError(errors.New("httpbind: request aborted"))
	b := s.b
	b.mu.Lock()
	b.poisoned = true
	respc := b.respc
	b.respc = nil
	b.mu.Unlock()
	if respc != nil {
		go func() {
			if r := <-respc; r.resp != nil {
				r.resp.Body.Close()
			}
		}()
	}
}

// ReceiveResponseStream implements core.StreamBinding: it waits for the
// response headers and returns a source slicing the body into windows. A
// buffered server's Content-Length response arrives through the same path.
func (b *Binding) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	b.mu.Lock()
	respc := b.respc
	b.respc = nil
	poisoned := b.poisoned
	b.mu.Unlock()
	if poisoned {
		return nil, "", fmt.Errorf("httpbind: %w", core.ErrBindingPoisoned)
	}
	if respc == nil {
		return nil, "", errors.New("httpbind: no streamed request in flight")
	}
	select {
	case r := <-respc:
		if r.err != nil {
			return nil, "", &core.TransportError{Op: "send request", Err: fmt.Errorf("httpbind: POST %s: %w", b.url, r.err)}
		}
		if r.resp.StatusCode != http.StatusOK && r.resp.StatusCode != http.StatusInternalServerError {
			r.resp.Body.Close()
			return nil, "", fmt.Errorf("httpbind: unexpected HTTP status %s", r.resp.Status)
		}
		return &cliSource{b: b, body: r.resp.Body}, r.resp.Header.Get("Content-Type"), nil
	case <-ctx.Done():
		b.mu.Lock()
		b.poisoned = true
		b.mu.Unlock()
		go func() {
			if r := <-respc; r.resp != nil {
				r.resp.Body.Close()
			}
		}()
		b.client.CloseIdleConnections()
		return nil, "", ctx.Err()
	}
}

// cliSource slices the response body into windows. A read failure mid-body
// poisons the binding exactly as the buffered path does — the HTTP
// connection holds an unconsumed response and cannot be reused.
type cliSource struct {
	b    *Binding
	body io.ReadCloser
	done bool
}

//paylint:returns owned
func (s *cliSource) ReadChunk() (*core.Payload, bool, error) {
	if s.done {
		return nil, false, io.EOF
	}
	p, eof, err := core.ReadPayloadWindow(s.body, streamWindow)
	if err != nil {
		s.done = true
		s.body.Close()
		if err == io.EOF {
			// Clean end with no pending bytes: the chunk contract wants an
			// explicit last chunk, so emit an empty one.
			s.b.obs.Inc(obs.MessagesReceived)
			return core.NewPayload(0), true, nil
		}
		s.b.mu.Lock()
		s.b.poisoned = true
		s.b.mu.Unlock()
		s.b.client.CloseIdleConnections()
		return nil, false, &core.TransportError{Op: "receive response", Err: fmt.Errorf("httpbind: read response: %w", err)}
	}
	s.b.obs.Add(obs.BytesReceived, uint64(p.Len()))
	if eof {
		s.done = true
		s.body.Close()
		s.b.obs.Inc(obs.MessagesReceived)
	}
	return p, eof, nil
}

// Abort abandons the response mid-body and retires the binding.
func (s *cliSource) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.body.Close()
	s.b.mu.Lock()
	s.b.poisoned = true
	s.b.mu.Unlock()
	s.b.client.CloseIdleConnections()
}

var _ core.StreamBinding = (*Binding)(nil)
