package harness

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
	"bxsoap/internal/vls"
	"bxsoap/internal/wssec"
)

// The conformance table: one suite, instead of per-package interop cases,
// over binding × encoding × client mode × server window × message size.
// Every cell asserts the echoed tree, that the payload pools settle, and —
// wherever a message is one chunk — that the bytes on the wire are the
// buffered wire form: a version-0x01 tcpbind frame, a Content-Length HTTP
// body. A message of several chunks must be in the chunked form instead, so
// a cell cannot pass by never streaming.

// recListener records, per accepted connection, what the server read and
// wrote.
type recListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*recConn
}

func (l *recListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, rc)
	l.mu.Unlock()
	return rc, nil
}

// only returns the sole connection's recorded request and response bytes.
func (l *recListener) only(t *testing.T) (in, out []byte) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.conns) != 1 {
		t.Fatalf("server accepted %d connections, want 1", len(l.conns))
	}
	c := l.conns[0]
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.in.Bytes()), bytes.Clone(c.out.Bytes())
}

type recConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// confBinding is one binding under test: how to serve and dial it, and how
// to check one recorded message (request or response) against the wire form
// its chunk count calls for.
type confBinding struct {
	name   string
	listen func(net.Listener) core.ServerBinding
	dial   func(addr string) core.Binding
	check  func(t *testing.T, what string, raw []byte, request, oneChunk bool, ct string, body []byte)
}

var confBindings = []confBinding{
	{
		name:   "tcpbind",
		listen: func(l net.Listener) core.ServerBinding { return tcpbind.NewListener(l) },
		dial:   func(addr string) core.Binding { return tcpbind.New(tcpbind.NetDialer, addr) },
		check: func(t *testing.T, what string, raw []byte, _, oneChunk bool, ct string, body []byte) {
			t.Helper()
			if !oneChunk {
				if len(raw) < 3 || raw[2] != 0x03 {
					t.Errorf("%s: multi-chunk message not in version-0x03 form (header % x)", what, raw[:min(len(raw), 3)])
				}
				return
			}
			golden := []byte{'B', 'X', 0x01}
			golden = vls.AppendUint(golden, uint64(len(ct)))
			golden = append(golden, ct...)
			golden = vls.AppendUint(golden, uint64(len(body)))
			golden = append(golden, body...)
			if !bytes.Equal(raw, golden) {
				t.Errorf("%s: one-chunk message is not the buffered v0x01 frame (%d bytes on the wire, want %d)", what, len(raw), len(golden))
			}
		},
	},
	{
		name:   "httpbind",
		listen: func(l net.Listener) core.ServerBinding { return httpbind.NewListener(l) },
		dial:   func(addr string) core.Binding { return httpbind.New(nil, "http://"+addr+"/soap") },
		check: func(t *testing.T, what string, raw []byte, request, oneChunk bool, ct string, body []byte) {
			t.Helper()
			var length int64
			var te []string
			var got []byte
			var gotCT string
			br := bufio.NewReader(bytes.NewReader(raw))
			if request {
				req, err := http.ReadRequest(br)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				length, te, gotCT = req.ContentLength, req.TransferEncoding, req.Header.Get("Content-Type")
				got, _ = io.ReadAll(req.Body)
			} else {
				resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				length, te, gotCT = resp.ContentLength, resp.TransferEncoding, resp.Header.Get("Content-Type")
				got, _ = io.ReadAll(resp.Body)
			}
			if !oneChunk {
				if len(te) != 1 || te[0] != "chunked" {
					t.Errorf("%s: multi-chunk message not in chunked transfer encoding (Content-Length %d)", what, length)
				}
				return
			}
			if len(te) != 0 || length != int64(len(body)) || gotCT != ct || !bytes.Equal(got, body) {
				t.Errorf("%s: one-chunk message is not a Content-Length body (TE %v, Content-Length %d, want %d)", what, te, length, len(body))
			}
		},
	},
}

const confWindow = 64 << 10

func confMessage(many bool) *core.Envelope {
	op := bxdm.NewElement(bxdm.PName("urn:conf", "c", "op"))
	op.DeclareNamespace("c", "urn:conf")
	op.Append(bxdm.NewLeaf(bxdm.Name("urn:conf", "id"), int32(42)))
	op.Append(bxdm.NewLeaf(bxdm.Name("urn:conf", "who"), "a <b> & c"))
	n := 8
	if many {
		n = 100_000 // ~400 KiB packed, several windows in either encoding
	}
	items := make([]int32, n)
	for i := range items {
		items[i] = int32(i * 3)
	}
	op.Append(bxdm.NewArray(bxdm.Name("urn:conf", "v"), items))
	return core.NewEnvelope(op)
}

func TestConformanceTable(t *testing.T) {
	runConformance(t, "XML", core.XMLEncoding{}, false)
	runConformance(t, "BXSA", core.BXSAEncoding{}, false)
	// The secured wrapper streams as magic + inner chunks + tag, so under a
	// window even a small message is several chunks.
	runConformance(t, "Secured[BXSA]", wssec.Secure(core.BXSAEncoding{}, []byte("0123456789abcdef")), true)
}

// confClients are the client modes: the engine's own entry points, and
// svcpool.Pool.Call over a buffered engine (the encode-once CallPayload
// replay) and over a windowed one (CallStream per attempt).
var confClients = []struct {
	name             string
	streamed, pooled bool
}{
	{"Call", false, false},
	{"CallStream", true, false},
	{"Pool.Call/buffered-engine", false, true},
	{"Pool.Call/windowed-engine", true, true},
}

func runConformance[E core.Encoding](t *testing.T, encName string, enc E, windowedIsMany bool) {
	for _, bind := range confBindings {
		for _, client := range confClients {
			streamedClient := client.streamed
			for _, serverWindow := range []int{0, confWindow} {
				for _, many := range []bool{false, true} {
					name := bind.name + "/" + encName + "/" + client.name
					if serverWindow > 0 {
						name += "/server-windowed"
					} else {
						name += "/server-window-0"
					}
					if many {
						name += "/many-chunks"
					} else {
						name += "/one-chunk"
					}
					t.Run(name, func(t *testing.T) {
						// A windowed encode is one chunk only when the message
						// fits the window and the encoding adds no framing chunks.
						windowedOne := !many && !windowedIsMany
						reqOne := !streamedClient || windowedOne
						respOne := serverWindow == 0 || windowedOne
						conformCell(t, bind, enc, streamedClient, client.pooled, serverWindow, many, reqOne, respOne)
					})
				}
			}
		}
	}
}

func conformCell[E core.Encoding](t *testing.T, bind confBinding, enc E, streamedClient, pooled bool, serverWindow int, many, reqOne, respOne bool) {
	baseline := core.PayloadsInUse()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recListener{Listener: l}
	var srvOpts []core.ServerOption
	if serverWindow > 0 {
		srvOpts = append(srvOpts, core.WithStreaming(serverWindow))
	}
	srv := core.NewServer(enc, bind.listen(rec), func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
		return core.NewEnvelope(req.Body()), nil
	}, srvOpts...)
	go srv.Serve()

	var engOpts []core.EngineOption
	if streamedClient {
		engOpts = append(engOpts, core.WithStreaming(confWindow))
	}
	newEngine := func() *core.Engine[E, core.Binding] {
		return core.NewEngine(enc, bind.dial(l.Addr().String()), engOpts...)
	}
	req := confMessage(many)
	var resp *core.Envelope
	switch {
	case pooled:
		pool := svcpool.New(func(context.Context) (*core.Engine[E, core.Binding], error) {
			return newEngine(), nil
		}, svcpool.Config{MaxConns: 1})
		resp, err = pool.Call(context.Background(), req)
		pool.Close()
	case streamedClient:
		eng := newEngine()
		resp, err = eng.CallStream(context.Background(), req)
		eng.Close()
	default:
		eng := newEngine()
		resp, err = eng.Call(context.Background(), req)
		eng.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewEnvelope(req.Body())
	if !resp.Equal(want) {
		t.Error("echoed tree differs from the request's")
	}
	srv.Close()

	codec := core.NewCodec(enc)
	reqBody, err := codec.EncodeBytes(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, err := codec.EncodeBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	in, out := rec.only(t)
	bind.check(t, "request", in, true, reqOne, codec.ContentType(), reqBody)
	bind.check(t, "response", out, false, respOne, codec.ContentType(), respBody)

	deadline := time.Now().Add(2 * time.Second)
	for core.PayloadsInUse() != baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := core.PayloadsInUse(); got != baseline {
		t.Errorf("PayloadsInUse = %d, want baseline %d", got, baseline)
	}
}

// faultOf decodes a response payload and returns the fault it carries.
func faultOf(t *testing.T, p *core.Payload) *core.Fault {
	t.Helper()
	defer p.Release()
	env, err := core.NewCodec(core.BXSAEncoding{}).DecodePayload(p)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return core.FaultFromEnvelope(env)
}

func confEchoServer(t *testing.T) (*recListener, func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recListener{Listener: l}
	srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(rec),
		func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
			return core.NewEnvelope(req.Body()), nil
		})
	go srv.Serve()
	return rec, func() { srv.Close() }
}

// TestUndecodableOneChunkRequestKeepsConnection: the whole message was read
// off the wire before it failed to decode, so the stream is in sync — the
// request draws a Client fault and the same connection serves the next one.
func TestUndecodableOneChunkRequestKeepsConnection(t *testing.T) {
	rec, stop := confEchoServer(t)
	defer stop()
	ctx := context.Background()
	b := tcpbind.New(tcpbind.NetDialer, rec.Addr().String())
	defer b.Close()

	junk := core.NewPayloadFrom([]byte("this is not a bxsa frame"))
	err := b.SendRequest(ctx, junk, "application/x-bxsa")
	junk.Release()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := b.ReceiveResponse(ctx)
	if err != nil {
		t.Fatalf("no response to an undecodable request: %v", err)
	}
	if f := faultOf(t, p); f == nil || f.Code != core.FaultClient {
		t.Fatalf("undecodable request drew %v, want a Client fault", f)
	}

	eng := core.NewEngine(core.BXSAEncoding{}, b)
	req := confMessage(false)
	resp, err := eng.Call(ctx, req)
	if err != nil {
		t.Fatalf("call after the fault: %v", err)
	}
	if !resp.Equal(core.NewEnvelope(req.Body())) {
		t.Error("echo after the fault differs")
	}
	rec.only(t) // both exchanges rode one connection
}

// TestAbortedMultiChunkRequestEndsChannel: a request abandoned before its
// last chunk leaves the stream position unknown — the server answers with
// exactly one fault and then ends the channel.
func TestAbortedMultiChunkRequestEndsChannel(t *testing.T) {
	rec, stop := confEchoServer(t)
	defer stop()
	ctx := context.Background()
	b := tcpbind.New(tcpbind.NetDialer, rec.Addr().String())
	defer b.Close()

	sink, err := b.SendRequestStream(ctx, "application/x-bxsa")
	if err != nil {
		t.Fatal(err)
	}
	// Not the last chunk: the decoder gives up with the message unfinished.
	if err := sink.WriteChunk(core.NewPayloadFrom([]byte("this is not a bxsa frame")), false); err != nil {
		t.Fatal(err)
	}
	p, _, err := b.ReceiveResponse(ctx)
	if err != nil {
		t.Fatalf("no response to an aborted request: %v", err)
	}
	if f := faultOf(t, p); f == nil || f.Code != core.FaultClient {
		t.Fatalf("aborted request drew %v, want a Client fault", f)
	}
	if p, _, err := b.ReceiveResponse(ctx); err == nil {
		p.Release()
		t.Fatal("channel produced a second message after the fault, want it ended")
	}
}
