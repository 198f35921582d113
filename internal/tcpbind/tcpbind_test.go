package tcpbind

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"bxsoap/internal/core"
)

// receive gathers the channel's next request into one payload.
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

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payload := []byte("hello frame")
	if err := writeFrame(w, payload, "text/xml"); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	got, ct, err := fr.readFirst(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	if !bytes.Equal(got.Bytes(), payload) || ct != "text/xml" {
		t.Errorf("frame = %q/%q", got.Bytes(), ct)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, nil, "application/x-bxsa"); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	got, ct, err := fr.readFirst(bufio.NewReader(&buf))
	if err != nil || got.Len() != 0 || ct != "application/x-bxsa" {
		t.Errorf("empty frame = %v/%q/%v", got, ct, err)
	}
	got.Release()
}

func TestFrameRejectsBadMagic(t *testing.T) {
	var fr frameReader
	r := bufio.NewReader(bytes.NewReader([]byte("XXx")))
	if _, _, err := fr.readFirst(r); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestFrameRejectsBadVersion(t *testing.T) {
	var fr frameReader
	r := bufio.NewReader(bytes.NewReader([]byte{'B', 'X', 0x7f, 0, 0}))
	if _, _, err := fr.readFirst(r); err == nil {
		t.Error("bad version accepted")
	}
}

func TestFrameRejectsHugeContentType(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	long := make([]byte, 5000)
	if err := writeFrame(w, nil, string(long)); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	if _, _, err := fr.readFirst(bufio.NewReader(&buf)); err == nil {
		t.Error("oversized content type accepted")
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, []byte("0123456789"), "x"); err != nil {
		t.Fatal(err)
	}
	var fr frameReader
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, _, err := fr.readFirst(bufio.NewReader(bytes.NewReader(trunc))); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestReceiveWithoutSendFails(t *testing.T) {
	b := New(NetDialer, "127.0.0.1:1")
	if _, _, err := b.ReceiveResponse(context.Background()); err == nil {
		t.Error("ReceiveResponse before SendRequest succeeded")
	}
}

func TestDialFailureSurfaces(t *testing.T) {
	b := New(func(string) (net.Conn, error) { return nil, io.ErrClosedPipe }, "nowhere")
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("x")), "t"); err == nil {
		t.Error("dial failure not surfaced")
	}
}

func TestChannelEOFOnPeerClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() {
		ch, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer ch.Close()
		_, _, err = receive(ch)
		done <- err
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // no frame ever sent
	if err := <-done; err != io.EOF {
		t.Errorf("ReceiveRequest on closed peer = %v, want io.EOF", err)
	}
}

func TestBindingCloseIdempotent(t *testing.T) {
	b := New(NetDialer, "127.0.0.1:1")
	if err := b.Close(); err != nil {
		t.Errorf("Close on fresh binding: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestClientServerExchangeDirect(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		ch, err := l.Accept()
		if err != nil {
			return
		}
		defer ch.Close()
		for {
			payload, ct, err := receive(ch)
			if err != nil {
				return
			}
			resp := core.NewPayloadFrom(append([]byte("echo:"), payload.Bytes()...))
			payload.Release()
			if err := respond(ch, resp, ct); err != nil {
				return
			}
		}
	}()
	b := New(NetDialer, l.Addr().String())
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte{byte('a' + i)}), "t/t"); err != nil {
			t.Fatal(err)
		}
		resp, ct, err := b.ReceiveResponse(context.Background())
		if err != nil || ct != "t/t" {
			t.Fatalf("recv: %q %v", ct, err)
		}
		if string(resp.Bytes()) != "echo:"+string([]byte{byte('a' + i)}) {
			t.Fatalf("resp = %q", resp.Bytes())
		}
		resp.Release()
	}
}

func TestContextDeadlineHonored(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		ch, err := l.Accept()
		if err != nil {
			return
		}
		defer ch.Close()
		// Receive the request but never respond.
		if payload, _, err := receive(ch); err == nil {
			payload.Release()
		}
		select {}
	}()
	b := New(NetDialer, l.Addr().String())
	defer b.Close()
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("x")), "t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = b.ReceiveResponse(ctx)
	if err == nil {
		t.Fatal("deadline ignored")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("ReceiveResponse blocked past the deadline (%v)", time.Since(start))
	}
}

func TestCanceledContextRejectedEarly(t *testing.T) {
	b := New(NetDialer, "127.0.0.1:1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.SendRequest(ctx, core.NewPayloadFrom([]byte("x")), "t"); err == nil {
		t.Error("canceled context not rejected")
	}
	if _, _, err := b.ReceiveResponse(ctx); err == nil {
		t.Error("canceled context not rejected on receive")
	}
}
