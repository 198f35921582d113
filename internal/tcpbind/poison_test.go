package tcpbind

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"bxsoap/internal/core"
	"bxsoap/internal/vls"
)

// scriptedServer accepts one connection, reads (and discards) the client's
// request frame bytes as they arrive, and answers with a fixed byte script.
// closeAfter makes it close the connection right after the script, so
// truncation tests terminate instead of hanging.
func scriptedServer(t *testing.T, script []byte, closeAfter bool) net.Addr {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Drain whatever the client sends in the background.
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := c.Read(buf); err != nil {
					return
				}
			}
		}()
		c.Write(script)
		if closeAfter {
			time.Sleep(20 * time.Millisecond) // let the bytes land first
			c.Close()
		}
	}()
	return l.Addr()
}

// frameHeader builds "BX" + version + vls(ctLen) + ct.
func frameHeader(version byte, ct string) []byte {
	out := []byte{magic0, magic1, version}
	out = vls.AppendUint(out, uint64(len(ct)))
	return append(out, ct...)
}

// exchange sends one request and attempts to receive, returning the
// receive error.
func exchange(t *testing.T, b *Binding, ctx context.Context) error {
	t.Helper()
	if err := b.SendRequest(ctx, core.NewPayloadFrom([]byte("payload")), "application/x-bxsa"); err != nil {
		t.Fatalf("SendRequest: %v", err)
	}
	_, _, err := b.ReceiveResponse(ctx)
	if err == nil {
		t.Fatal("ReceiveResponse succeeded on a malformed frame")
	}
	return err
}

// assertPoisoned verifies the binding reports itself dead and refuses the
// next exchange with the typed error.
func assertPoisoned(t *testing.T, b *Binding, recvErr error) {
	t.Helper()
	if !errors.Is(recvErr, core.ErrBindingPoisoned) {
		t.Errorf("receive error %v does not wrap ErrBindingPoisoned", recvErr)
	}
	if !b.Poisoned() {
		t.Error("binding not marked poisoned")
	}
	err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("again")), "application/x-bxsa")
	if !errors.Is(err, core.ErrBindingPoisoned) {
		t.Errorf("poisoned binding accepted another request: %v", err)
	}
	if !core.IsTransportError(err) {
		t.Error("poisoned-binding error not classified as transport")
	}
}

func TestPoisonOnBadMagic(t *testing.T) {
	addr := scriptedServer(t, []byte("ZZ\x01junkjunkjunk"), false)
	b := New(NetDialer, addr.String())
	defer b.Close()
	err := exchange(t, b, context.Background())
	assertPoisoned(t, b, err)
}

func TestPoisonOnBadVersion(t *testing.T) {
	script := frameHeader(0x7f, "application/x-bxsa")
	addr := scriptedServer(t, script, false)
	b := New(NetDialer, addr.String())
	defer b.Close()
	err := exchange(t, b, context.Background())
	assertPoisoned(t, b, err)
}

func TestPoisonOnOversizedFrame(t *testing.T) {
	script := frameHeader(version, "application/x-bxsa")
	script = vls.AppendUint(script, uint64(MaxFrameSize)+1)
	addr := scriptedServer(t, script, false)
	b := New(NetDialer, addr.String())
	defer b.Close()
	err := exchange(t, b, context.Background())
	assertPoisoned(t, b, err)
}

func TestPoisonOnTruncatedVLSLength(t *testing.T) {
	script := frameHeader(version, "application/x-bxsa")
	// First byte of a multi-byte VLS payload length (continuation bit set),
	// then the peer hangs up: the reader must error out, not hang.
	script = append(script, 0x80|0x05)
	addr := scriptedServer(t, script, true)
	b := New(NetDialer, addr.String())
	defer b.Close()
	err := exchange(t, b, context.Background())
	assertPoisoned(t, b, err)
}

func TestPoisonOnDeadlineMidFrame(t *testing.T) {
	// A valid header and a promised 1 MB payload that never arrives: the
	// context deadline expires mid-frame, which must poison the binding —
	// the stream position is unknowable afterwards.
	script := frameHeader(version, "application/x-bxsa")
	script = vls.AppendUint(script, 1<<20)
	script = append(script, []byte("only a little")...)
	addr := scriptedServer(t, script, false)
	b := New(NetDialer, addr.String())
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	err := exchange(t, b, ctx)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("want timeout error, got %v", err)
	}
	assertPoisoned(t, b, err)
}

// TestHealthyAfterCleanExchange guards the opposite direction: a normal
// round trip leaves the binding unpoisoned and reusable (regression check
// that poisoning is not over-eager).
func TestHealthyAfterCleanExchange(t *testing.T) {
	reply := frameHeader(version, "application/x-bxsa")
	reply = vls.AppendUint(reply, 2)
	reply = append(reply, "ok"...)
	addr := scriptedServer(t, reply, false)
	b := New(NetDialer, addr.String())
	defer b.Close()
	if err := b.SendRequest(context.Background(), core.NewPayloadFrom([]byte("payload")), "application/x-bxsa"); err != nil {
		t.Fatal(err)
	}
	payload, ct, err := b.ReceiveResponse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer payload.Release()
	if string(payload.Bytes()) != "ok" || ct != "application/x-bxsa" {
		t.Errorf("got payload %q ct %q", payload.Bytes(), ct)
	}
	if b.Poisoned() {
		t.Error("clean exchange poisoned the binding")
	}
}

// TestHostileLengthBoundsAllocation is the regression test for the
// pre-allocation length check: a frame header may advertise any payload
// length up to MaxFrameSize, but the reader must grow its buffer only as
// bytes actually arrive. A hostile peer promising ~1 GB and sending almost
// nothing must cost at most a chunk or two of memory, not the advertised
// size.
func TestHostileLengthBoundsAllocation(t *testing.T) {
	script := frameHeader(version, "application/x-bxsa")
	script = vls.AppendUint(script, uint64(MaxFrameSize)-1)
	script = append(script, "only a few bytes"...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var fr frameReader
	payload, _, err := fr.readFirst(bufio.NewReader(bytes.NewReader(script)))
	runtime.ReadMemStats(&after)
	if err == nil {
		payload.Release()
		t.Fatal("truncated hostile frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("hostile length prefix drove %d bytes of allocation, want chunked growth only", got)
	}
}

// TestRejectsExtendedHeaderBeforeAllocation audits the v1 reader against
// the muxbind extended header (version 0x02, then a frame-type byte and a
// stream ID ahead of the length fields). A v2 frame reaching a v1 endpoint
// must be rejected at the version byte — before any of the extended
// header's varints could be misread as a length and sized into a buffer.
// The hostile bytes after the version byte here would, if misparsed as a
// v1 ctLen/len pair, claim ~1 GB.
func TestRejectsExtendedHeaderBeforeAllocation(t *testing.T) {
	script := []byte{magic0, magic1, 0x02, 0x00} // v2 magic + DATA type byte
	script = vls.AppendUint(script, uint64(MaxFrameSize)-1)
	script = vls.AppendUint(script, uint64(MaxFrameSize)-1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var fr frameReader
	payload, _, err := fr.readFirst(bufio.NewReader(bytes.NewReader(script)))
	runtime.ReadMemStats(&after)
	if err == nil {
		payload.Release()
		t.Fatal("extended-header frame accepted by v1 reader")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("version")) {
		t.Errorf("rejection error %q should fire on the version byte, before the length fields", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("extended header drove %d bytes of allocation before rejection", got)
	}
}

// TestHostileContentTypeLengthBounded: the content-type length prefix is
// validated against its bound before the scratch slice is taken, for both
// an absurd value and the first out-of-range one.
func TestHostileContentTypeLengthBounded(t *testing.T) {
	for _, ctLen := range []uint64{maxContentTypeLen + 1, 1 << 40} {
		script := []byte{magic0, magic1, version}
		script = vls.AppendUint(script, ctLen)
		var fr frameReader
		payload, _, err := fr.readFirst(bufio.NewReader(bytes.NewReader(script)))
		if err == nil {
			payload.Release()
			t.Fatalf("content-type length %d accepted", ctLen)
		}
	}
}
