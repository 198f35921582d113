package muxbind

import (
	"fmt"
	"net"
	"sync"

	"bxsoap/internal/core"
	"bxsoap/internal/obs"
)

// Dialer opens the underlying transport connection; netsim-shaped dialers
// plug in here (assignment-compatible with tcpbind.Dialer).
type Dialer func(addr string) (net.Conn, error)

// NetDialer dials plain TCP (no shaping). As a Dialer it hands the raw
// connection (and any raw dial error) to the transport, which classifies.
//
//paylint:wire-verbatim Dialer seam; Transport.session() classifies dial failures
func NetDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// DefaultMaxSessions is the connection budget when WithMaxSessions is not
// given: the ROADMAP target of c=1000 concurrent calls over at most this
// many sockets.
const DefaultMaxSessions = 8

// Option configures a Transport at construction.
type Option func(*options)

type options struct {
	obs         *obs.Observer
	maxSessions int
}

// WithObserver wires an observability sink into the transport: message and
// byte counters, the mux stream gauges, and reset events record into it.
func WithObserver(o *obs.Observer) Option {
	return func(c *options) { c.obs = o }
}

// WithMaxSessions caps how many connections the transport fans its streams
// across (default DefaultMaxSessions). Streams are assigned round-robin, so
// the cap is also the steady-state connection count under load.
func WithMaxSessions(n int) Option {
	return func(c *options) {
		if n > 0 {
			c.maxSessions = n
		}
	}
}

// Transport is the client side of the multiplexed binding: a fixed budget
// of sessions (connections), each carrying many concurrent streams. It
// hands out Bindings — one per engine — that all share the session pool, so
// a svcpool of hundreds of engines runs over a handful of sockets.
type Transport struct {
	addr string
	// dial opens the transport connection; calls through it pay the full
	// connection-establishment latency.
	//paylint:blocks dials the network
	dial Dialer
	obs  *obs.Observer
	opt  options

	mu       sync.Mutex
	sessions []*Session // fixed length opt.maxSessions; nil = not yet dialed
	next     int
	closed   bool
}

// NewTransport creates a transport to addr using the given dialer. No
// connection is opened until the first call needs one; sessions are then
// dialed lazily, one per round-robin slot, up to the session budget.
func NewTransport(dial Dialer, addr string, opts ...Option) *Transport {
	o := options{maxSessions: DefaultMaxSessions}
	for _, opt := range opts {
		opt(&o)
	}
	return &Transport{
		addr:     addr,
		dial:     dial,
		obs:      o.obs,
		opt:      o,
		sessions: make([]*Session, o.maxSessions),
	}
}

// NewBinding returns a new core.Binding backed by this transport's shared
// sessions. Bindings are cheap (no socket of their own) and single-exchange
// at a time, matching the engine's call discipline; closing one never
// closes a session.
func (t *Transport) NewBinding() *Binding {
	b := &Binding{tr: t}
	b.rx.avail = make(chan struct{}, 1)
	return b
}

// Sessions reports how many connections the transport currently holds open
// (for tests asserting the socket budget).
func (t *Transport) Sessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sessions {
		if s != nil && !s.dead() {
			n++
		}
	}
	return n
}

// session picks the next round-robin slot, dialing or re-dialing it if the
// slot is empty or its session has died. Dial failures are classified.
//
// The dial happens outside t.mu: connection establishment pays real
// network latency (a full RTT under netsim shaping), and holding the lock
// across it would wedge every caller headed for a perfectly live slot.
// Two callers may race to repopulate one slot; the loser adopts the
// winner's session and retires its own dial.
func (t *Transport) session() (*Session, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, &core.TransportError{Op: "mux dial", Err: net.ErrClosed}
	}
	i := t.next
	t.next = (t.next + 1) % len(t.sessions)
	if s := t.sessions[i]; s != nil && !s.dead() {
		t.mu.Unlock()
		return s, nil
	}
	t.mu.Unlock()

	conn, err := t.dial(t.addr)
	if err != nil {
		return nil, &core.TransportError{Op: "mux dial", Err: fmt.Errorf("muxbind: dial %s: %w", t.addr, err)}
	}
	ns := newSession(conn, t.obs)

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ns.close()
		return nil, &core.TransportError{Op: "mux dial", Err: net.ErrClosed}
	}
	if cur := t.sessions[i]; cur != nil && !cur.dead() {
		t.mu.Unlock()
		ns.close()
		return cur, nil
	}
	t.sessions[i] = ns
	t.mu.Unlock()
	return ns, nil
}

// Close tears down every session. In-flight calls fail with a classified
// transport error.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	sessions := make([]*Session, len(t.sessions))
	copy(sessions, t.sessions)
	for i := range t.sessions {
		t.sessions[i] = nil
	}
	t.mu.Unlock()
	var first error
	for _, s := range sessions {
		if s == nil {
			continue
		}
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
