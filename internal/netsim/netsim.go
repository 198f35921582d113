// Package netsim emulates the paper's two testbeds — a 0.2 ms-RTT LAN and a
// 5.75 ms-RTT WAN to the University of Chicago (§6) — on top of real
// loopback TCP connections. Three quantities drive every crossover in
// Figures 4-6, and the shaper models exactly those three:
//
//   - RTT: injected as a half-RTT pause whenever a connection turns around
//     from reading to writing (one network traversal per direction change),
//     plus one full RTT at Dial for the TCP handshake. Request-response
//     exchanges therefore cost one RTT, and chatty protocols (GridFTP
//     authentication) pay proportionally — which is what sinks GridFTP for
//     small messages in Figure 4.
//   - Per-stream bandwidth: a cap modeling the TCP window/RTT product of "a
//     single untuned TCP stream". On the WAN this is what parallel GridFTP
//     streams escape in Figure 6.
//   - Shared path bandwidth: a token bucket shared by every connection of
//     the Network, modeling the link capacity that parallel streams on a
//     LAN merely divide among themselves (Figure 5's observation that LAN
//     parallelism does not help).
//
// CPU-side costs — float↔ASCII conversion, framing, disk I/O — are NOT
// simulated; they are the real costs of the real code under test.
//
// All shaping math reads time through the injected Clock (see clock.go) so
// fake-clock tests stay deterministic; paylint's nowallclock analyzer
// enforces that via the marker below.
//
// As a net.Conn/net.Listener provider the package mostly hands raw wire
// errors to its consumers on purpose (std-library callers type-assert
// net.Error and match io.EOF by identity) — those functions carry
// //paylint:wire-verbatim annotations; everything else classifies, which
// paylint's errclass analyzer enforces.
//
//paylint:deterministic-clock
//paylint:classify-transport-errors
package netsim

import (
	"net"
	"sync"
	"time"

	"bxsoap/internal/obs"
)

// Option configures a Network at construction.
type Option func(*Network)

// WithObserver wires an observability sink into the network: every shaped
// write records its injected delay into the netsim.shape stage histogram
// plus the turnaround and byte counters. The recorded durations are the
// shaper's own computed waits — simulated-clock quantities, not wall-clock
// measurements — so fake-clock runs stay deterministic.
func WithObserver(o *obs.Observer) Option {
	return func(n *Network) { n.obs = o }
}

// Profile describes one emulated network.
type Profile struct {
	Name string
	// RTT is the round-trip time between the two endpoints.
	RTT time.Duration
	// PathBandwidth is the shared capacity of the link in bytes/second;
	// 0 means unlimited.
	PathBandwidth float64
	// StreamBandwidth caps each individual connection in bytes/second,
	// modeling the TCP congestion-window/RTT product of a single untuned
	// stream; 0 means unlimited.
	StreamBandwidth float64
}

// The paper's testbeds. Bandwidth figures are calibrated so that a single
// untuned stream tops out around 10 MB/s (the saturation the paper reports
// for SOAP over BXSA/TCP on the LAN, §6.2), while the WAN backbone has
// capacity that only parallel streams can exploit.
var (
	// LAN: 0.2 ms RTT. The link itself is the bottleneck (~11 MB/s, a fast
	// 100 Mbit-class path), so one stream saturates it and parallel streams
	// just share it.
	LAN = Profile{
		Name:          "LAN",
		RTT:           200 * time.Microsecond,
		PathBandwidth: 11 << 20,
	}
	// WAN: 5.75 ms RTT. Each stream is window-limited to ~11 MB/s
	// (64 KiB / 5.75 ms), but the backbone carries ~60 MB/s, so 4-16
	// parallel streams aggregate usefully.
	WAN = Profile{
		Name:            "WAN",
		RTT:             5750 * time.Microsecond,
		PathBandwidth:   60 << 20,
		StreamBandwidth: 11 << 20,
	}
)

// Network is one emulated link. The same Network must be used for both the
// Listen and Dial side so that they share the path token bucket.
type Network struct {
	prof Profile
	path *bucket
	obs  *obs.Observer
}

// New creates a network with the given profile.
func New(p Profile, opts ...Option) *Network {
	n := &Network{prof: p}
	if p.PathBandwidth > 0 {
		n.path = newBucket(p.PathBandwidth)
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// Profile returns the network's profile.
func (n *Network) Profile() Profile { return n.prof }

// Listen opens a shaped listener on addr (use "127.0.0.1:0" to pick a free
// port). Accepted connections are shaped by this network.
//
//paylint:wire-verbatim net.Listener provider; binding layers classify
func (n *Network) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: l, net: n}, nil
}

// Dial opens a shaped connection to addr, charging one RTT for the TCP
// three-way handshake.
//
//paylint:wire-verbatim Dialer seam; binding layers classify dial failures
func (n *Network) Dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	sleepPrecise(n.prof.RTT) // connection establishment
	return n.wrap(c), nil
}

func (n *Network) wrap(c net.Conn) net.Conn {
	sc := &Conn{Conn: c, net: n}
	if n.prof.StreamBandwidth > 0 {
		sc.stream = newBucket(n.prof.StreamBandwidth)
	}
	return sc
}

type listener struct {
	net.Listener
	net *Network
}

// Accept implements net.Listener; net/http type-asserts net.Error on its
// failures, so they must pass through untouched.
//
//paylint:wire-verbatim net.Listener contract
func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c), nil
}

// Conn is a shaped connection.
type Conn struct {
	net.Conn
	net    *Network
	stream *bucket

	mu      sync.Mutex
	wasRead bool // last shaped operation was a read
	sent    bool // at least one write has happened
}

// Read records the direction so the next write pays a traversal.
//
//paylint:wire-verbatim io.Reader contract requires raw io.EOF
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.wasRead = true
		c.mu.Unlock()
	}
	return n, err
}

// Write injects half an RTT when the connection turns around (data now has
// to cross the link in the other direction) and paces the bytes through the
// per-stream and shared-path buckets.
//
//paylint:wire-verbatim net.Conn contract; consumers type-assert net.Error
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	turnaround := c.wasRead || !c.sent
	c.wasRead = false
	c.sent = true
	c.mu.Unlock()
	var wait time.Duration
	if turnaround {
		wait = c.net.prof.RTT / 2
		c.net.obs.Inc(obs.NetTurnarounds)
	}
	if c.stream != nil {
		wait = maxDur(wait, c.stream.reserve(len(p)))
	}
	if c.net.path != nil {
		wait = maxDur(wait, c.net.path.reserve(len(p)))
	}
	// The observed duration is the wait the shaper just computed on the
	// simulated clock — no wall-clock read happens here.
	c.net.obs.ObserveStage(obs.NetShape, wait)
	c.net.obs.Add(obs.NetBytes, uint64(len(p)))
	sleepPrecise(wait)
	return c.Conn.Write(p)
}

// sleepPrecise waits for d on the installed clock. The wall-clock
// implementation spin-waits its final stretch for sub-millisecond accuracy
// (see wallClock.Sleep); fakes simply advance.
func sleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	clk.Sleep(d)
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// bucket is a rate limiter using virtual-time reservation: each send
// reserves an interval on the link's timeline; the caller sleeps until its
// reservation completes. This both paces a single stream and arbitrates a
// shared path among concurrent streams.
type bucket struct {
	mu       sync.Mutex
	rate     float64 // bytes per second
	nextFree time.Time
}

func newBucket(rate float64) *bucket { return &bucket{rate: rate} }

// reserve books n bytes of transmission time and returns how long the
// caller must wait for its bytes to have "left the link".
func (b *bucket) reserve(n int) time.Duration {
	d := time.Duration(float64(n) / b.rate * float64(time.Second))
	b.mu.Lock()
	now := clk.Now()
	start := b.nextFree
	if start.Before(now) {
		start = now
	}
	b.nextFree = start.Add(d)
	wait := b.nextFree.Sub(now)
	b.mu.Unlock()
	return wait
}
