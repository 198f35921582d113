// Package tcpbind implements the TCPBinding policy (paper §5.3): the
// serialized SOAP message is "just dumped directly to a TCP connection",
// with a minimal framing header so message boundaries and the content type
// survive the stream. This is the binding behind the paper's fastest
// scheme, SOAP over BXSA/TCP.
//
// Wire format of a message sent as one chunk (version 0x01):
//
//	magic   2 bytes  "BX"
//	version 1 byte   0x01
//	ctLen   VLS      content-type length
//	ct      bytes
//	len     VLS      payload length
//	payload bytes
//
// A message of more than one chunk (version 0x03) has the same header
// through ct, followed by one sub-frame per chunk
//
//	flags   1 byte   bit0 = last chunk, other bits reserved (must be zero)
//	len     VLS      chunk length (may be zero)
//	payload bytes
//
// ending with the first flags byte with bit0 set. Both sides of the binding
// speak the chunk seam only: the sender picks the form from what it is
// handed (first chunk also the last → 0x01), and the receiver surfaces a
// 0x01 frame as a one-chunk stream, so a buffered exchange is the one-chunk
// case of the same code and every combination of peers interoperates (the
// DESIGN.md fallback matrix).
//
// Wire failures escape this package classified (core.TransportError /
// core.ErrBindingPoisoned); paylint's errclass analyzer enforces that via
// the marker below.
//
//paylint:classify-transport-errors
package tcpbind

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/framing"
	"bxsoap/internal/obs"
)

// Option configures a Binding or Listener at construction.
type Option func(*options)

type options struct {
	obs *obs.Observer
}

// WithObserver wires an observability sink into the binding: message and
// payload-byte counters record into it on every frame sent or received
// (payload bytes, excluding framing overhead). On a Listener the observer
// propagates to every accepted channel.
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

const (
	magic0, magic1 = framing.Magic0, framing.Magic1
	version        = 0x01
	versionChunked = 0x03

	// chunkLast marks a sub-frame as the message's final chunk.
	chunkLast = 0x01

	maxContentTypeLen = framing.MaxContentTypeLen
)

// Dialer opens the underlying transport connection; netsim-shaped dialers
// plug in here.
type Dialer func(addr string) (net.Conn, error)

// NetDialer dials plain TCP (no shaping). As a Dialer it hands the raw
// connection (and any raw dial error) to the binding, which classifies.
//
//paylint:wire-verbatim Dialer seam; ensure() classifies dial failures
func NetDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Binding is the client-side TCP binding. It lazily dials on first use and
// keeps the connection for subsequent exchanges (SOAP messages are
// hop-by-hop on one transport channel). The exchange is implemented once,
// in chunk terms (SendRequestStream / ReceiveResponseStream and the sink
// and source they return); SendRequest and ReceiveResponse are its
// one-chunk case.
type Binding struct {
	addr string
	// dial opens the transport connection; calls through it pay the full
	// connection-establishment latency.
	//paylint:blocks dials the network
	dial Dialer
	obs  *obs.Observer

	// mu serializes the binding's one in-flight exchange: SOAP calls on a
	// tcpbind channel are strictly request/response on one connection, so
	// the frame I/O under this lock IS the critical section — there is
	// nothing else for a contender to do but wait for the exchange. The sink
	// and source take it per chunk, so it is never held across the
	// producer's or consumer's own work.
	//paylint:serializes-io single in-flight exchange per binding by contract
	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	fr       frameReader
	fw       frameWriter
	poisoned bool

	// sink and src are the two ends every exchange runs through; they live
	// here so opening a message allocates nothing.
	sink clientSink
	src  clientSource
}

// New creates a client binding to addr using the given dialer.
func New(dial Dialer, addr string, opts ...Option) *Binding {
	o := applyOptions(opts)
	b := &Binding{addr: addr, dial: dial, obs: o.obs}
	b.sink.b, b.src.b = b, b
	return b
}

func (b *Binding) ensure() error {
	if b.conn != nil {
		return nil
	}
	c, err := b.dial(b.addr)
	if err != nil {
		return &core.TransportError{Op: "dial", Err: fmt.Errorf("tcpbind: dial %s: %w", b.addr, err)}
	}
	b.conn = c
	b.br = bufio.NewReaderSize(c, 64<<10)
	b.bw = bufio.NewWriterSize(c, 64<<10)
	return nil
}

// poison marks the binding dead and tears the connection down. Called (under
// mu) after any frame-level failure: a partial write, a read deadline that
// expired mid-frame, a malformed frame, or a message abandoned mid-stream
// all leave the stream position unknown, so the connection must never carry
// another exchange.
//
//paylint:classifies
func (b *Binding) poison(op string, err error) error {
	b.poisoned = true
	if b.conn != nil {
		b.conn.Close()
		b.conn = nil
	}
	return fmt.Errorf("tcpbind: %s: %w: %w", op, core.ErrBindingPoisoned, err)
}

// Poisoned reports whether the binding has been retired after a frame-level
// failure. A poisoned binding fails every subsequent operation with
// core.ErrBindingPoisoned.
func (b *Binding) Poisoned() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.poisoned
}

// SendRequestStream implements core.StreamBinding: it readies the
// connection for one request. A context deadline maps onto the
// connection's write deadline. Nothing is written yet: the sink picks the
// wire form when it sees whether the first chunk is the last.
func (b *Binding) SendRequestStream(ctx context.Context, contentType string) (core.ChunkSink, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, fmt.Errorf("tcpbind: %w", core.ErrBindingPoisoned)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.ensure(); err != nil {
		return nil, err
	}
	if err := applyDeadline(ctx, b.conn.SetWriteDeadline); err != nil {
		// A failed deadline set means the conn is already broken; without
		// poisoning, the next exchange would run against it undeadlined.
		return nil, b.poison("set write deadline", err)
	}
	b.fw.begin(contentType)
	return &b.sink, nil
}

// SendRequest implements core.Binding: the one-chunk request. The payload
// is borrowed: it is fully copied into the connection's write buffer before
// returning.
//
//paylint:borrows
func (b *Binding) SendRequest(ctx context.Context, payload *core.Payload, contentType string) error {
	return core.SendWhole(ctx, b, payload, contentType)
}

type clientSink struct{ b *Binding }

// WriteChunk frames one chunk of the open request.
//
//paylint:transfers
func (s *clientSink) WriteChunk(p *core.Payload, last bool) error {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	defer p.Release()
	if b.poisoned {
		return fmt.Errorf("tcpbind: %w", core.ErrBindingPoisoned)
	}
	if err := b.fw.write(b.bw, p.Bytes(), last); err != nil {
		return b.poison("write frame", err)
	}
	b.obs.ChunkSent(p.Len(), last)
	return nil
}

func (s *clientSink) Abort() {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.poisoned {
		b.poison("abort request", errors.New("stream aborted"))
	}
}

// ReceiveResponseStream implements core.StreamBinding. It blocks for the
// response's header and first chunk — a buffered (version 0x01) response is
// that one chunk. A context deadline maps onto the connection's read
// deadline. Any receive failure — including a deadline expiry before or
// during a frame — poisons the binding: a late response still in flight
// would desynchronize the next exchange.
func (b *Binding) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, "", fmt.Errorf("tcpbind: %w", core.ErrBindingPoisoned)
	}
	if b.conn == nil {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return nil, "", errors.New("tcpbind: no request in flight")
	}
	if err := ctx.Err(); err != nil {
		// The request went out; abandoning its response desynchronizes the
		// stream just as surely as a mid-frame timeout.
		return nil, "", b.poison("abandon response", err)
	}
	if err := applyDeadline(ctx, b.conn.SetReadDeadline); err != nil {
		return nil, "", b.poison("set read deadline", err)
	}
	p, ct, err := b.fr.readFirst(b.br)
	if err != nil {
		return nil, "", b.poison("read frame", err)
	}
	b.obs.ChunkReceived(p.Len(), !b.fr.more)
	b.src.first, b.src.firstLast = p, !b.fr.more
	return &b.src, ct, nil
}

// ReceiveResponse implements core.Binding: the response as one payload the
// caller owns (see core.ReceiveWhole).
//
//paylint:returns owned
func (b *Binding) ReceiveResponse(ctx context.Context) (*core.Payload, string, error) {
	return core.ReceiveWhole(ctx, b)
}

// clientSource yields the response in flight: the chunk
// ReceiveResponseStream already read (held here, the consumer's alone, so
// taking it needs no lock), then the remaining sub-frames.
type clientSource struct {
	b         *Binding
	first     *core.Payload
	firstLast bool
}

//paylint:returns owned
func (s *clientSource) ReadChunk() (*core.Payload, bool, error) {
	if p := s.first; p != nil {
		s.first = nil
		return p, s.firstLast, nil
	}
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poisoned {
		return nil, false, fmt.Errorf("tcpbind: %w", core.ErrBindingPoisoned)
	}
	if !b.fr.more {
		return nil, false, io.EOF
	}
	p, err := b.fr.readNext(b.br)
	if err != nil {
		return nil, false, b.poison("read chunk", err)
	}
	b.obs.ChunkReceived(p.Len(), !b.fr.more)
	return p, !b.fr.more, nil
}

// Abort abandons the response. Cut short mid-message it leaves the stream
// position unknown, so the binding is poisoned; once the last chunk is off
// the wire the connection is in sync and stays usable.
func (s *clientSource) Abort() {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	s.first.Release()
	s.first = nil
	if b.fr.more && !b.poisoned {
		b.poison("abort response", errors.New("stream aborted"))
	}
}

// applyDeadline projects a context deadline onto a conn deadline setter,
// clearing any previous deadline when the context has none.
func applyDeadline(ctx context.Context, set func(time.Time) error) error {
	if dl, ok := ctx.Deadline(); ok {
		return set(dl)
	}
	return set(time.Time{})
}

// Close implements core.Binding.
func (b *Binding) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.conn == nil {
		return nil
	}
	err := b.conn.Close()
	b.conn = nil
	return err
}

// frameWriter is one connection's send-side state, and the one place the
// wire form is chosen: a message whose first chunk is also its last is a
// version-0x01 frame; anything longer is a version-0x03 header followed by
// one sub-frame per chunk. Every chunk is flushed as it is handed over —
// holding chunks back in the write buffer would forfeit exactly the
// first-byte latency the chunked form exists for.
type frameWriter struct {
	ct      string
	chunked bool // the 0x03 header is out; sub-frames follow until last
}

// begin opens a message. Nothing is written until its first chunk.
func (f *frameWriter) begin(contentType string) { f.ct, f.chunked = contentType, false }

func (f *frameWriter) write(w *bufio.Writer, payload []byte, last bool) error {
	if !f.chunked {
		if last {
			return writeFrame(w, payload, f.ct)
		}
		writeHeader(w, versionChunked, f.ct)
	}
	f.chunked = !last
	return writeChunkFrame(w, payload, last)
}

func writeFrame(w *bufio.Writer, payload []byte, contentType string) error {
	writeHeader(w, version, contentType)
	framing.WriteBody(w, payload)
	return w.Flush()
}

// writeHeader writes the message header (either version) through ct.
func writeHeader(w *bufio.Writer, ver byte, contentType string) {
	w.WriteByte(magic0)
	w.WriteByte(magic1)
	w.WriteByte(ver)
	framing.WriteContentType(w, contentType)
}

// writeChunkFrame writes one version-0x03 sub-frame and flushes.
func writeChunkFrame(w *bufio.Writer, payload []byte, last bool) error {
	var flags byte
	if last {
		flags = chunkLast
	}
	w.WriteByte(flags)
	framing.WriteBody(w, payload)
	return w.Flush()
}

// frameReader is one connection's receive-side state: the content-type
// cache (the same peer sends the same content type on every frame, so
// steady state reads a frame with zero binding-side allocations beyond the
// pooled payload checkout) and whether the message being read has
// sub-frames still to come.
type frameReader struct {
	ct   framing.ContentType
	more bool
}

// readFirst reads a message's header and first chunk: the whole body of a
// version-0x01 frame, or the first sub-frame of a version-0x03 message
// (f.more then reports whether others follow). The caller owns the payload.
//
//paylint:returns owned
func (f *frameReader) readFirst(r *bufio.Reader) (*core.Payload, string, error) {
	var hdr [3]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, "", err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return nil, "", fmt.Errorf("tcpbind: bad frame magic %x", hdr[:2])
	}
	if hdr[2] != version && hdr[2] != versionChunked {
		return nil, "", fmt.Errorf("tcpbind: unsupported frame version %d", hdr[2])
	}
	ct, err := f.ct.Read(r)
	if err != nil {
		return nil, "", err
	}
	if hdr[2] == version {
		f.more = false
		p, err := framing.ReadBody(r)
		return p, ct, err
	}
	f.more = true
	p, err := f.readNext(r)
	return p, ct, err
}

// readNext reads the next sub-frame of the version-0x03 message in
// progress.
//
//paylint:returns owned
func (f *frameReader) readNext(r *bufio.Reader) (*core.Payload, error) {
	p, last, err := readChunkFrame(r)
	f.more = err == nil && !last
	return p, err
}

// readChunkFrame reads one version-0x03 sub-frame. Reserved flag bits are
// rejected at the flags byte, before the length is looked at.
//
//paylint:returns owned
func readChunkFrame(r *bufio.Reader) (*core.Payload, bool, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, false, err
	}
	if flags&^byte(chunkLast) != 0 {
		return nil, false, fmt.Errorf("tcpbind: reserved chunk flag bits %#x set", flags)
	}
	p, err := framing.ReadBody(r)
	return p, flags&chunkLast != 0, err
}

// Listener is the server-side TCP binding.
type Listener struct {
	l   net.Listener
	obs *obs.Observer
}

// NewListener wraps an already-bound listener (e.g. a netsim-shaped one).
func NewListener(l net.Listener, opts ...Option) *Listener {
	o := applyOptions(opts)
	return &Listener{l: l, obs: o.obs}
}

// Listen binds an unshaped TCP listener on addr.
func Listen(addr string, opts ...Option) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, &core.TransportError{Op: "listen", Err: err}
	}
	return NewListener(l, opts...), nil
}

// Accept implements core.ServerBinding. Accept failures are classified;
// callers detect shutdown with errors.Is(err, net.ErrClosed), which
// unwraps through the classification.
func (s *Listener) Accept() (core.Channel, error) {
	c, err := s.l.Accept()
	if err != nil {
		return nil, &core.TransportError{Op: "accept", Err: err}
	}
	ch := &channel{
		conn: c,
		br:   bufio.NewReaderSize(c, 64<<10),
		bw:   bufio.NewWriterSize(c, 64<<10),
		obs:  s.obs,
	}
	ch.src.c, ch.sink.c = ch, ch
	return ch, nil
}

// Addr implements core.ServerBinding.
func (s *Listener) Addr() net.Addr { return s.l.Addr() }

// Close implements core.ServerBinding.
func (s *Listener) Close() error { return s.l.Close() }

// channel serves the request/response sequence of one TCP connection. Its
// source and sink are fields, so an exchange allocates nothing here.
type channel struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	fr   frameReader
	fw   frameWriter
	obs  *obs.Observer
	// rxDead marks the receive side desynchronized (a request was abandoned
	// or failed mid-message). The send side still works — the server can
	// deliver a fault for the failed request — but the next receive ends
	// the channel as if the peer disconnected.
	rxDead bool
	src    srvSource
	sink   srvSink
}

// ReceiveRequest implements core.Channel: it blocks for the next request's
// header and first chunk — a buffered (version 0x01) request is that one
// chunk.
func (c *channel) ReceiveRequest(_ context.Context) (core.ChunkSource, string, error) {
	if c.rxDead {
		return nil, "", io.EOF
	}
	p, ct, err := c.fr.readFirst(c.br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// A disconnect between (or mid-) frames ends the channel; the
			// server loop matches io.EOF by identity, so it stays verbatim.
			return nil, "", io.EOF
		}
		return nil, "", &core.TransportError{Op: "receive request", Err: err}
	}
	c.obs.ChunkReceived(p.Len(), !c.fr.more)
	c.src.first = p
	return &c.src, ct, nil
}

// srvSource yields the request in flight: the chunk ReceiveRequest already
// read, then the remaining sub-frames.
type srvSource struct {
	c     *channel
	first *core.Payload
}

//paylint:returns owned
func (s *srvSource) ReadChunk() (*core.Payload, bool, error) {
	c := s.c
	if p := s.first; p != nil {
		s.first = nil
		return p, !c.fr.more, nil
	}
	if c.rxDead || !c.fr.more {
		return nil, false, io.EOF
	}
	p, err := c.fr.readNext(c.br)
	if err != nil {
		c.rxDead = true
		return nil, false, &core.TransportError{Op: "receive chunk", Err: err}
	}
	c.obs.ChunkReceived(p.Len(), !c.fr.more)
	return p, !c.fr.more, nil
}

// Abort abandons the request. Cut short mid-message it marks the receive
// side desynchronized without closing the connection: the server still
// sends one fault for the failed request, and the channel ends at the next
// receive. Once the last chunk is off the wire the stream is in sync, so a
// request that merely failed to decode leaves the connection usable.
func (s *srvSource) Abort() {
	s.first.Release()
	s.first = nil
	if s.c.fr.more {
		s.c.rxDead = true
	}
}

// SendResponse implements core.Channel.
func (c *channel) SendResponse(contentType string) (core.ChunkSink, error) {
	c.fw.begin(contentType)
	return &c.sink, nil
}

type srvSink struct{ c *channel }

//paylint:transfers
func (s *srvSink) WriteChunk(p *core.Payload, last bool) error {
	c := s.c
	defer p.Release()
	if err := c.fw.write(c.bw, p.Bytes(), last); err != nil {
		return &core.TransportError{Op: "send response", Err: err}
	}
	c.obs.ChunkSent(p.Len(), last)
	return nil
}

// Abort tears the connection down: a response that cannot be produced or
// completed cannot be followed by anything parseable.
func (s *srvSink) Abort() {
	s.c.rxDead = true
	s.c.conn.Close()
}

// Close implements core.Channel.
func (c *channel) Close() error { return c.conn.Close() }

var _ core.StreamBinding = (*Binding)(nil)
