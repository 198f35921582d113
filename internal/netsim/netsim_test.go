package netsim

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipe sets up a shaped server that echoes nothing and just drains, and
// returns a dialed connection.
func drainServer(t *testing.T, n *Network) (net.Conn, func()) {
	t.Helper()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	c, err := n.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return c, func() {
		c.Close()
		l.Close()
		<-done
	}
}

// measureRTT estimates the effective request-response latency of the
// network by timing a 1-byte ping-pong over a fresh connection: one
// warm-up exchange, then the mean of three back-to-back round trips timed
// on the package clock.
func measureRTT(t *testing.T, n *Network) time.Duration {
	t.Helper()
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	errc := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 1)
		for i := 0; i < 4; i++ {
			if _, err := c.Read(buf); err != nil {
				errc <- err
				return
			}
			if _, err := c.Write(buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	c, err := n.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 1)
	// Warm up once, then time three round trips.
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	for i := 0; i < 3; i++ {
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	rtt := clk.Now().Sub(start) / 3
	if err := <-errc; err != nil {
		t.Fatalf("ping server: %v", err)
	}
	return rtt
}

func TestRTTInjection(t *testing.T) {
	prof := Profile{Name: "test", RTT: 10 * time.Millisecond}
	n := New(prof)
	rtt := measureRTT(t, n)
	// A 1-byte ping-pong should cost about one RTT (half per direction).
	if rtt < prof.RTT || rtt > prof.RTT*3 {
		t.Errorf("measured RTT %v, configured %v", rtt, prof.RTT)
	}
}

func TestDialPaysHandshake(t *testing.T) {
	prof := Profile{Name: "test", RTT: 20 * time.Millisecond}
	n := New(prof)
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			c.Close()
		}
	}()
	start := time.Now()
	c, err := n.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if d := time.Since(start); d < prof.RTT {
		t.Errorf("Dial took %v, want >= RTT %v", d, prof.RTT)
	}
}

func TestStreamBandwidthCap(t *testing.T) {
	// 1 MB at 10 MB/s per stream ≈ 100 ms minimum.
	prof := Profile{Name: "test", StreamBandwidth: 10 << 20}
	n := New(prof)
	c, cleanup := drainServer(t, n)
	defer cleanup()
	payload := make([]byte, 1<<20)
	start := time.Now()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := time.Duration(float64(len(payload)) / float64(prof.StreamBandwidth) * float64(time.Second))
	if elapsed < want*8/10 {
		t.Errorf("1MB write took %v, want >= ~%v", elapsed, want)
	}
	if elapsed > want*3 {
		t.Errorf("1MB write took %v, want around %v — shaping too slow", elapsed, want)
	}
}

func TestSharedPathDividesAmongStreams(t *testing.T) {
	// Two concurrent streams over a shared 10 MB/s path: total time for
	// 2 x 512 KB should be about the same as 1 MB over one stream, i.e. the
	// streams do NOT each get 10 MB/s.
	prof := Profile{Name: "test", PathBandwidth: 10 << 20}
	n := New(prof)
	c1, cl1 := drainServer(t, n)
	defer cl1()
	c2, cl2 := drainServer(t, n)
	defer cl2()

	payload := make([]byte, 512<<10)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range []net.Conn{c1, c2} {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			c.Write(payload)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 1 MB total at 10 MB/s = 100 ms.
	if elapsed < 80*time.Millisecond {
		t.Errorf("two streams finished in %v — path bandwidth not shared", elapsed)
	}
}

func TestParallelStreamsEscapeWindowLimit(t *testing.T) {
	// WAN-style: per-stream cap 5 MB/s, path 20 MB/s. Four streams sending
	// 256 KB each (1 MB total) should take ~0.25 s/4 streams in parallel
	// ≈ 51 ms each, well under the 200 ms a single capped stream would need
	// for the same total.
	prof := Profile{Name: "test", StreamBandwidth: 5 << 20, PathBandwidth: 20 << 20}
	n := New(prof)
	conns := make([]net.Conn, 4)
	cleanups := make([]func(), 4)
	for i := range conns {
		conns[i], cleanups[i] = drainServer(t, n)
		defer cleanups[i]()
	}
	payload := make([]byte, 256<<10)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			c.Write(payload)
		}(c)
	}
	wg.Wait()
	parallel := time.Since(start)

	single, cleanup := drainServer(t, n)
	defer cleanup()
	big := make([]byte, 1<<20)
	start = time.Now()
	single.Write(big)
	serial := time.Since(start)

	if parallel >= serial {
		t.Errorf("4 parallel streams (%v) not faster than 1 capped stream (%v)", parallel, serial)
	}
}

func TestUnshapedPassthrough(t *testing.T) {
	n := New(Profile{})
	c, cleanup := drainServer(t, n)
	defer cleanup()
	start := time.Now()
	if _, err := c.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("unshaped 1MB write took %v", d)
	}
}

func TestLANAndWANProfilesSane(t *testing.T) {
	if LAN.RTT >= WAN.RTT {
		t.Error("LAN RTT should be below WAN RTT")
	}
	if WAN.StreamBandwidth == 0 || WAN.PathBandwidth <= WAN.StreamBandwidth {
		t.Error("WAN must be stream-limited with spare path capacity (that is Figure 6's premise)")
	}
	if LAN.StreamBandwidth != 0 {
		t.Error("LAN streams are path-limited, not window-limited (Figure 5's premise)")
	}
}

func TestBucketReservationAccumulates(t *testing.T) {
	b := newBucket(1 << 20) // 1 MB/s
	var total time.Duration
	for i := 0; i < 10; i++ {
		total = b.reserve(100 << 10) // 100 KB
	}
	// After booking 1 MB the timeline should be ~1 s out.
	if total < 800*time.Millisecond || total > 1500*time.Millisecond {
		t.Errorf("cumulative reservation = %v, want ~1 s", total)
	}
}
