package httpbind

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"bxsoap/internal/core"
)

// receive gathers the channel's request into one payload.
func receive(ch core.Channel) (*core.Payload, string, error) {
	src, ct, err := ch.ReceiveRequest(context.Background())
	if err != nil {
		return nil, "", err
	}
	p, err := core.GatherChunks(src)
	return p, ct, err
}

// respond answers with p as a one-chunk response.
func respond(ch core.Channel, p *core.Payload, ct string) error {
	sink, err := ch.SendResponse(ct)
	if err != nil {
		p.Release()
		return err
	}
	return sink.WriteChunk(p, true)
}

// startEcho runs a Listener whose accept loop echoes request payloads.
func startEcho(t *testing.T) *Listener {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	go func() {
		for {
			ch, err := s.Accept()
			if err != nil {
				return
			}
			go func() {
				defer ch.Close()
				payload, ct, err := receive(ch)
				if err != nil {
					return
				}
				resp := core.NewPayloadFrom(append([]byte("echo:"), payload.Bytes()...))
				payload.Release()
				respond(ch, resp, ct)
			}()
		}
	}()
	return s
}

func TestPostAndResponse(t *testing.T) {
	s := startEcho(t)
	b := New(nil, s.URL())
	defer b.Close()
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("ping")), "text/xml"); err != nil {
		t.Fatal(err)
	}
	resp, ct, err := b.ReceiveResponse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if string(resp.Bytes()) != "echo:ping" || ct != "text/xml" {
		t.Errorf("resp = %q / %q", resp.Bytes(), ct)
	}
}

func TestReceiveWithoutSend(t *testing.T) {
	b := New(nil, "http://127.0.0.1:1/soap")
	if _, _, err := b.ReceiveResponse(context.Background()); err == nil {
		t.Error("ReceiveResponse before SendRequest succeeded")
	}
}

func TestNonPostRejected(t *testing.T) {
	s := startEcho(t)
	resp, err := http.Get(s.URL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestFaultRidesOn500(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		ch, err := s.Accept()
		if err != nil {
			return
		}
		defer ch.Close()
		if payload, _, err := receive(ch); err == nil {
			payload.Release()
		}
		respond(ch, core.NewPayloadFrom([]byte(`<soap:Fault>boom</soap:Fault>`)), "text/xml")
	}()
	resp, err := http.Post(s.URL(), "text/xml", strings.NewReader("<x/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("fault status = %d, want 500", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "Fault") {
		t.Error("fault body lost")
	}
}

func TestChannelSecondReceiveIsEOF(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := make(chan error, 1)
	go func() {
		ch, err := s.Accept()
		if err != nil {
			got <- err
			return
		}
		defer ch.Close()
		if payload, _, err := receive(ch); err != nil {
			got <- err
			return
		} else {
			payload.Release()
		}
		_, _, err = receive(ch)
		respond(ch, core.NewPayloadFrom([]byte("done")), "text/plain")
		got <- err
	}()
	resp, err := http.Post(s.URL(), "text/plain", strings.NewReader("one"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-got; err != io.EOF {
		t.Errorf("second ReceiveRequest = %v, want io.EOF", err)
	}
}

func TestChannelCloseWithoutResponseAnswers500(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	go func() {
		ch, err := s.Accept()
		if err != nil {
			return
		}
		if payload, _, err := receive(ch); err == nil {
			payload.Release()
		}
		ch.Close() // never responds
	}()
	resp, err := http.Post(s.URL(), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Accept returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
}

func TestCustomDialerUsed(t *testing.T) {
	s := startEcho(t)
	var dialed bool
	b := New(func(addr string) (net.Conn, error) {
		dialed = true
		return net.Dial("tcp", addr)
	}, s.URL())
	defer b.Close()
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("x")), "t/t"); err != nil {
		t.Fatal(err)
	}
	if resp, _, err := b.ReceiveResponse(context.Background()); err != nil {
		t.Fatal(err)
	} else {
		resp.Release()
	}
	if !dialed {
		t.Error("custom dialer not used")
	}
}

func TestSOAPActionHeaderSent(t *testing.T) {
	var gotAction string
	hs := &http.Server{}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hs.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAction = r.Header.Get("SOAPAction")
		w.Write([]byte("ok"))
	})
	go hs.Serve(l)
	defer hs.Close()

	b := New(nil, "http://"+l.Addr().String()+"/soap")
	defer b.Close()
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("x")), "t/t"); err != nil {
		t.Fatal(err)
	}
	if resp, _, err := b.ReceiveResponse(context.Background()); err != nil {
		t.Fatal(err)
	} else {
		resp.Release()
	}
	if gotAction != `""` {
		t.Errorf("SOAPAction = %q", gotAction)
	}
}
