// Package httpbind implements the HttpBinding policy (paper §5.3): each
// SOAP request rides as the payload of an HTTP/1.1 POST, the response comes
// back in the HTTP response body — the prevailing SOAP-over-HTTP binding.
// It runs on top of net/http with a pluggable dialer/listener so netsim-
// shaped transports drop in.
//
// Wire failures escape this package classified (core.TransportError /
// core.ErrBindingPoisoned); paylint's errclass analyzer enforces that via
// the marker below.
//
//paylint:classify-transport-errors
package httpbind

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	neturl "net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Option configures a Binding or Listener at construction.
type Option func(*options)

type options struct {
	obs *obs.Observer
}

// WithObserver wires an observability sink into the binding: message and
// payload-byte counters record into it per exchange (SOAP payload bytes,
// excluding HTTP framing). On a Listener the observer covers every
// accepted channel.
func WithObserver(o *obs.Observer) Option {
	return func(c *options) { c.obs = o }
}

func applyOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Binding is the client-side HTTP binding.
type Binding struct {
	url    string
	client *http.Client
	action string
	obs    *obs.Observer

	// mu guards the exchange in flight: the response to a whole request
	// (pending, set when client.Do returns) or a chunked request's outcome
	// on its way from the Do goroutine (respc). See stream.go.
	mu       sync.Mutex
	pending  *http.Response
	respc    chan doResult
	poisoned bool

	// proto is the prototype POST request: URL parsed and headers built
	// once at construction, shallow-copied per request via WithContext. The
	// header map is reused across requests (the binding carries one exchange
	// at a time, and the transport has serialized the headers before the
	// response can arrive), so steady state sends a request with no URL
	// parsing and no header-map churn.
	proto     *http.Request
	header    http.Header
	actionHdr string

	// sink and src are the two ends every exchange runs through; they live
	// here (the binding carries one exchange at a time) so opening a
	// message allocates nothing of its own.
	sink cliSink
	src  bodySource
}

// Dialer opens the underlying transport connection.
type Dialer func(addr string) (net.Conn, error)

// New creates a client binding POSTing to url ("http://host:port/path"),
// dialing through dial (nil = plain TCP).
func New(dial Dialer, url string, opts ...Option) *Binding {
	tr := &http.Transport{
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     time.Minute,
	}
	if dial != nil {
		tr.DialContext = func(_ context.Context, _, addr string) (net.Conn, error) {
			return dial(addr)
		}
	}
	o := applyOptions(opts)
	b := &Binding{url: url, client: &http.Client{Transport: tr}, actionHdr: `""`, obs: o.obs}
	if u, err := neturl.Parse(url); err == nil {
		b.header = make(http.Header, 4)
		b.proto = &http.Request{
			Method:     http.MethodPost,
			URL:        u,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     b.header,
			Host:       u.Host,
		}
	}
	return b
}

// SetSOAPAction sets the SOAPAction header value sent with requests.
func (b *Binding) SetSOAPAction(a string) {
	b.action = a
	b.actionHdr = `"` + a + `"`
}

// Poisoned reports whether the binding has been retired after a response
// was abandoned mid-body (e.g. a deadline expired while reading). The
// underlying net/http connection is broken at that point; pool
// implementations should discard the binding.
func (b *Binding) Poisoned() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.poisoned
}

// payloadBody adapts a payload to the request body net/http wants. It holds
// its own reference: net/http's write loop can still be reading the body
// after Do returns (a server may answer before consuming the full request),
// so the caller releasing its borrowed-payload reference must not free the
// buffer until the transport has closed the body too.
type payloadBody struct {
	r      bytes.Reader
	p      *core.Payload
	closed atomic.Bool
}

var bodyPool = sync.Pool{New: func() any { return new(payloadBody) }}

func newPayloadBody(p *core.Payload) *payloadBody {
	p.Retain()
	b := bodyPool.Get().(*payloadBody)
	b.p = p
	b.closed.Store(false)
	b.r.Reset(p.Bytes())
	return b
}

func (b *payloadBody) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *payloadBody) Close() error {
	if b.closed.CompareAndSwap(false, true) {
		b.p.Release()
		b.p = nil
		b.r.Reset(nil)
		bodyPool.Put(b)
	}
	return nil
}

// Close implements core.Binding.
func (b *Binding) Close() error {
	b.mu.Lock()
	if b.pending != nil {
		b.pending.Body.Close()
		b.pending = nil
	}
	respc := b.respc
	b.respc = nil
	b.mu.Unlock()
	discard(respc)
	b.client.CloseIdleConnections()
	return nil
}

// Listener is the server-side HTTP binding: an http.Server bridged to the
// core.ServerBinding accept loop.
type Listener struct {
	l      net.Listener
	srv    *http.Server
	accept chan *channel
	done   chan struct{}
	once   sync.Once
	err    error
	obs    *obs.Observer
}

// NewListener wraps an already-bound listener (e.g. a netsim-shaped one)
// and starts the HTTP machinery on it.
func NewListener(l net.Listener, opts ...Option) *Listener {
	o := applyOptions(opts)
	s := &Listener{
		l:      l,
		accept: make(chan *channel),
		done:   make(chan struct{}),
		obs:    o.obs,
	}
	s.srv = &http.Server{Handler: http.HandlerFunc(s.handle)}
	go func() {
		err := s.srv.Serve(l)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
		s.once.Do(func() { close(s.done) })
	}()
	return s
}

// Listen binds an unshaped HTTP listener on addr.
func Listen(addr string, opts ...Option) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &core.TransportError{Op: "listen", Err: err}
	}
	return NewListener(l, opts...), nil
}

// chunkWrite is one response chunk on its way from the dispatcher goroutine
// to the handler goroutine, which owns the ResponseWriter. A message's first
// chunk carries the content type and the HTTP status; abort (no payload)
// cuts a message short after its first chunk.
type chunkWrite struct {
	p      *core.Payload
	last   bool
	abort  bool
	ct     string
	status int
}

// channel adapts one HTTP request to the core.Channel exchange sequence.
// The request body is read by the dispatcher goroutine as the decoder asks
// for it, so a streamed request never materializes. The handler goroutine
// keeps the ResponseWriter alive until the response has been handed to it
// through chunks. That hand-off is unbuffered — the handler's write is the
// pacing — and every sender selects against hgone, so a payload is always
// either taken by the handler (which releases it) or still the sender's to
// release: there is no buffer a response could be parked in.
type channel struct {
	r      *http.Request
	chunks chan chunkWrite
	// hgone closes when the handler goroutine stops serving this exchange
	// (response written, shutdown, or aborted).
	hgone    chan struct{}
	received bool
	// started is claimed by whoever first offers the handler a response:
	// the sink with the message's first chunk, or Close with the "no
	// response produced" fallback (Server.Close closes live channels from
	// its own goroutine, so the two can race). Exactly one of them opens the
	// HTTP response; once a real response has been offered, Close stays out.
	started atomic.Bool
	obs     *obs.Observer
	src     bodySource
	sink    srvSink
}

func newChannel(r *http.Request, o *obs.Observer) *channel {
	ch := &channel{r: r, chunks: make(chan chunkWrite), hgone: make(chan struct{}), obs: o}
	ch.sink.c = ch
	return ch
}

func (s *Listener) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "SOAP endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	ch := newChannel(r, s.obs)
	defer close(ch.hgone)
	select {
	case s.accept <- ch:
	case <-s.done:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	select {
	case m := <-ch.chunks:
		s.writeResponse(w, ch, m)
	case <-s.done:
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
	}
}

// writeResponse puts the response on the wire, starting from its first
// chunk. A message whose first chunk is also its last goes out with a
// declared Content-Length (leaving it off would switch the response to
// chunked encoding, costing framing work here and denying the client a
// right-sized pooled read). Anything longer has no Content-Length, so
// net/http frames the body with HTTP chunked transfer encoding, and each
// chunk is flushed as it lands — the first response byte leaves before the
// message (or its trailing signature) exists.
func (s *Listener) writeResponse(w http.ResponseWriter, ch *channel, m chunkWrite) {
	h := w.Header()
	h.Set("Content-Type", m.ct)
	if m.last {
		h.Set("Content-Length", strconv.Itoa(m.p.Len()))
	}
	w.WriteHeader(m.status)
	flusher, _ := w.(http.Flusher)
	for {
		w.Write(m.p.Bytes())
		m.p.Release()
		if m.last {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case m = <-ch.chunks:
			if m.abort {
				// The dispatcher's encoder failed mid-message. A chunked body
				// cannot signal an error in-band, so kill the connection: the
				// client's decoder fails on the truncated stream.
				panic(http.ErrAbortHandler)
			}
		case <-s.done:
			return
		}
	}
}

// Accept implements core.ServerBinding.
func (s *Listener) Accept() (core.Channel, error) {
	select {
	case ch := <-s.accept:
		return ch, nil
	case <-s.done:
		if s.err != nil {
			return nil, s.err
		}
		return nil, net.ErrClosed
	}
}

// Addr implements core.ServerBinding.
func (s *Listener) Addr() net.Addr { return s.l.Addr() }

// URL returns the endpoint URL clients should POST to.
func (s *Listener) URL() string { return "http://" + s.l.Addr().String() + "/soap" }

// Close implements core.ServerBinding.
func (s *Listener) Close() error {
	s.once.Do(func() { close(s.done) })
	return s.srv.Close()
}

// ReceiveRequest implements core.Channel: the one request, then EOF (HTTP
// is one exchange per channel). The body's first chunk is read here, on the
// dispatcher goroutine; a read error surfaces as a channel error (the
// exchange answers with the Close fallback) rather than an HTTP 400.
func (c *channel) ReceiveRequest(_ context.Context) (core.ChunkSource, string, error) {
	if c.received {
		return nil, "", io.EOF
	}
	c.received = true
	c.src = bodySource{body: c.r.Body, length: c.r.ContentLength, obs: c.obs}
	if err := c.src.open(); err != nil {
		return nil, "", err
	}
	return &c.src, c.r.Header.Get("Content-Type"), nil
}

var errResponded = errors.New("httpbind: response already sent")

// SendResponse implements core.Channel.
func (c *channel) SendResponse(contentType string) (core.ChunkSink, error) {
	if c.started.Load() {
		return nil, errResponded
	}
	c.sink.ct, c.sink.open = contentType, false
	return &c.sink, nil
}

// handOff gives one response chunk to the handler goroutine, or releases
// it if the handler is gone.
//
//paylint:transfers
func (c *channel) handOff(m chunkWrite) error {
	select {
	case c.chunks <- m:
		return nil
	case <-c.hgone:
		m.p.Release()
		return &core.TransportError{Op: "send response", Err: errors.New("httpbind: handler gone")}
	}
}

// srvSink forwards response chunks to the handler goroutine's write loop.
type srvSink struct {
	c    *channel
	ct   string
	open bool // the message's first chunk is with the handler
}

// WriteChunk implements core.ChunkSink. Fault envelopes ride on HTTP 500
// per the SOAP 1.1 HTTP binding; the status is sniffed from the first chunk
// (faults are rare and small). A streamed fault whose first chunk hides the
// marker rides status 200, which streaming clients accept — the envelope,
// not the status, is authoritative.
//
//paylint:transfers
func (s *srvSink) WriteChunk(p *core.Payload, last bool) error {
	c := s.c
	m := chunkWrite{p: p, last: last}
	if !s.open {
		if !c.started.CompareAndSwap(false, true) {
			p.Release()
			return errResponded
		}
		m.ct, m.status = s.ct, http.StatusOK
		if looksLikeFault(p.Bytes()) {
			m.status = http.StatusInternalServerError
		}
	}
	n := p.Len()
	if err := c.handOff(m); err != nil {
		return err
	}
	s.open = true
	c.obs.ChunkSent(n, last)
	return nil
}

// Abort abandons the response. Before its first chunk nothing has reached
// the handler, which keeps waiting — Close then answers with the fallback.
// Mid-message it tells the handler to kill the connection: a chunked body
// cannot carry an in-band error, so truncation is the signal.
func (s *srvSink) Abort() {
	if s.open {
		s.c.handOff(chunkWrite{abort: true})
	}
}

// Close implements core.Channel: answer the HTTP request with an error if
// no response was produced. The fallback is offered only when no response
// was ever handed off — after a real response the handler writes it and
// returns.
func (c *channel) Close() error {
	if c.started.CompareAndSwap(false, true) {
		c.handOff(chunkWrite{
			p:      core.NewPayloadFrom([]byte("no response produced")),
			last:   true,
			ct:     "text/plain",
			status: http.StatusInternalServerError,
		})
	}
	return nil
}

// looksLikeFault sniffs whether a serialized envelope carries a fault, for
// choosing the HTTP status. Cheap containment check on the first KB; both
// encodings spell the element name "Fault" literally.
func looksLikeFault(payload []byte) bool {
	head := payload
	if len(head) > 1024 {
		head = head[:1024]
	}
	return bytes.Contains(head, []byte("Fault"))
}
