package httpbind

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"bxsoap/internal/core"
)

// The shutdown/response race used to leak: a response queued in a buffered
// channel just as the handler's shutdown branch gave up on the exchange was
// parked there forever — a pooled buffer checked out and never released.
// The hand-off is now unbuffered and every sender selects against hgone, so
// a payload is either taken by the handler or released by its sender in
// every interleaving. These tests pin both interleavings directly and then
// the whole race end-to-end.

// TestAbandonedResponseReleasedSenderFirst: the sender is already offering
// the response when the handler abandons the exchange; the sender sees the
// handler go and releases its own payload.
func TestAbandonedResponseReleasedSenderFirst(t *testing.T) {
	base := core.PayloadsInUse()
	ch := newChannel(nil, nil)
	sent := make(chan error, 1)
	go func() { sent <- respond(ch, core.NewPayloadFrom([]byte("late")), "text/xml") }()
	// Handler side, as in handle()'s shutdown branch: give up and return.
	time.Sleep(5 * time.Millisecond) // let the sender block in its offer
	close(ch.hgone)
	if err := <-sent; err == nil {
		t.Fatal("response offered to an abandoning handler succeeded, want error")
	}
	if got := core.PayloadsInUse(); got != base {
		t.Fatalf("PayloadsInUse = %d, want %d — offered response leaked", got, base)
	}
}

// TestAbandonedResponseReleasedHandlerFirst: the handler abandons before
// the response is offered; the sender reclaims its own payload, reporting
// the shutdown as a transport error.
func TestAbandonedResponseReleasedHandlerFirst(t *testing.T) {
	base := core.PayloadsInUse()
	ch := newChannel(nil, nil)
	close(ch.hgone)
	err := respond(ch, core.NewPayloadFrom([]byte("late")), "text/xml")
	if err == nil {
		t.Fatal("SendResponse after abandon succeeded, want error")
	}
	var te *core.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("SendResponse after abandon: %v, want *core.TransportError", err)
	}
	if got := core.PayloadsInUse(); got != base {
		t.Fatalf("PayloadsInUse = %d, want %d — abandoned response leaked", got, base)
	}
}

// TestCloseAfterResponseDoesNotQueueFallback: once a real response has been
// handed off and consumed, the handler has returned — Close must not offer
// its "no response produced" fallback, because nobody is left to take it.
// (This was the common-path leak: every normal exchange whose dispatcher
// closed the channel after the handler wrote the response lost one pooled
// buffer.)
func TestCloseAfterResponseDoesNotQueueFallback(t *testing.T) {
	base := core.PayloadsInUse()
	ch := newChannel(nil, nil)
	// Handler side: consume, write, release, return.
	go func() {
		m := <-ch.chunks
		m.p.Release()
		close(ch.hgone)
	}()
	if err := respond(ch, core.NewPayloadFrom([]byte("<pong/>")), "text/xml"); err != nil {
		t.Fatalf("SendResponse: %v", err)
	}
	<-ch.hgone
	if err := ch.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := core.PayloadsInUse(); got != base {
		t.Fatalf("PayloadsInUse = %d, want %d — Close parked a fallback payload", got, base)
	}
}

// TestShutdownResponseRaceDoesNotLeak drives the real race: a request is
// mid-exchange when the listener closes, and the dispatcher responds after
// the shutdown. Whichever side wins the drain, the pooled payload count
// must return to its baseline.
func TestShutdownResponseRaceDoesNotLeak(t *testing.T) {
	base := core.PayloadsInUse()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := s.URL()

	// The in-flight POST. Depending on who wins the shutdown race the
	// client sees either the handler's 503 or a torn connection (Server.
	// Close may kill the conn before the handler writes) — both are fine;
	// what this test pins is the payload accounting, not the status line.
	clientDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "text/xml", strings.NewReader("<ping/>"))
		if err != nil {
			clientDone <- nil
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			err = errors.New("expected 503, got " + resp.Status)
		}
		clientDone <- err
	}()

	ch, err := s.Accept()
	if err != nil {
		t.Fatal(err)
	}
	payload, ct, err := receive(ch)
	if err != nil {
		t.Fatal(err)
	}
	payload.Release()

	// Shutdown races the response below.
	s.Close()
	respond(ch, core.NewPayloadFrom([]byte("<pong/>")), ct)
	ch.Close()

	if err := <-clientDone; err != nil {
		t.Fatal(err)
	}
	// The handler goroutine may still be between its drain and returning;
	// poll briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for core.PayloadsInUse() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := core.PayloadsInUse(); got != base {
		t.Fatalf("PayloadsInUse = %d, want %d — shutdown race leaked a payload", got, base)
	}
}
