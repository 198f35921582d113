package muxbind

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/netsim"
)

// Regression for the deliver/abandon protocol: deliver (the reader) removes
// a stream from the map under the session's mu but pushes the response into
// the stream's queue outside it, which opens a window where a cancelling
// caller's abandon finds the stream already gone with the payload still in
// flight. The queue settles it: a push that lands after abandon killed the
// queue releases its payload instead of parking it. This test hammers
// cancellation against response delivery from both sides of that window and
// asserts nothing leaks.
func TestMuxDeliverAbandonRaceNoLeak(t *testing.T) {
	baseline := core.PayloadsInUse()
	nw := netsim.New(netsim.Unshaped)
	// Queue sized past the test's whole window so sheds never mix
	// classified overload errors into the cancellation outcomes.
	addr, _ := startServer(t, nw, echoHandler, Config{StreamCredit: 256, Queue: 2048})
	tr := NewTransport(nw.Dial, addr, WithMaxSessions(2))
	defer tr.Close()

	env := sampleEnvelope()
	const workers, iters = 8, 40
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// A fresh binding per attempt: cancellation poisons the
				// binding by contract, and a poisoned one carries no
				// further calls.
				eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
				ctx, cancel := context.WithCancel(context.Background())
				// Jitter the cancel across the delivery window: sometimes
				// it lands before the response, sometimes during the
				// unregister-then-send gap, sometimes after.
				go func(d time.Duration) {
					time.Sleep(d)
					cancel()
				}(time.Duration((seed+i)%5) * 50 * time.Microsecond)
				_, err := eng.Call(ctx, env)
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("call failed with a non-cancellation error: %v", err)
	}
	tr.Close()
	waitPayloadsSettled(t, baseline)
}

// closeCounting wraps a dialer to count connections opened and closed, so a
// test can assert the transport never strands a socket.
type closeCounting struct {
	dial           Dialer
	opened, closed atomic.Int64
}

func (d *closeCounting) Dial(addr string) (net.Conn, error) {
	c, err := d.dial(addr)
	if err != nil {
		return nil, err
	}
	d.opened.Add(1)
	return &closeCountConn{Conn: c, closed: &d.closed}, nil
}

type closeCountConn struct {
	net.Conn
	once   sync.Once
	closed *atomic.Int64
}

func (c *closeCountConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}

// Regression for Transport.session() dialing outside t.mu: two callers may
// race to repopulate one empty slot, and the loser must adopt the winner's
// installed session and close its own dial. A barrage of concurrent
// session() calls against a tiny budget must return only live sessions,
// stay within the connection budget, and strand no sockets.
func TestMuxSessionDialRaceWithinBudget(t *testing.T) {
	nw := netsim.New(netsim.Unshaped)
	addr, _ := startServer(t, nw, echoHandler, Config{})
	cd := &closeCounting{dial: nw.Dial}
	const budget = 2
	tr := NewTransport(cd.Dial, addr, WithMaxSessions(budget))
	defer tr.Close()

	const callers = 32
	got := make([]*Session, callers)
	errs := make([]error, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			got[i], errs[i] = tr.session()
		}(i)
	}
	start.Done()
	wg.Wait()

	distinct := make(map[*Session]bool)
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("session() call %d: %v", i, errs[i])
		}
		if got[i].dead() {
			t.Errorf("session() call %d returned a dead session", i)
		}
		distinct[got[i]] = true
	}
	if len(distinct) > budget {
		t.Errorf("callers saw %d distinct sessions, budget was %d", len(distinct), budget)
	}
	if n := tr.Sessions(); n > budget {
		t.Errorf("transport holds %d sessions, budget was %d", n, budget)
	}
	// Every dial beyond the installed winners must have been closed by its
	// losing caller; the transport may not strand sockets.
	if live := cd.opened.Load() - cd.closed.Load(); live > budget {
		t.Errorf("%d connections still open (opened %d, closed %d), budget was %d",
			live, cd.opened.Load(), cd.closed.Load(), budget)
	}

	// The surviving sessions are usable: a round trip completes.
	eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding())
	env := sampleEnvelope()
	resp, err := eng.Call(context.Background(), env)
	if err != nil {
		t.Fatalf("round trip after dial race: %v", err)
	}
	if !resp.Equal(env) {
		t.Fatal("response does not match request after dial race")
	}
}
