package harness

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/tcpbind"
)

var errEncode = errors.New("encode refused")

// failingEncoding is BXSA whose buffered encode fails while fail is set.
type failingEncoding struct {
	core.BXSAEncoding
	fail *atomic.Bool
}

func (f failingEncoding) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	if f.fail.Load() {
		return dst, errEncode
	}
	return f.BXSAEncoding.AppendEncode(dst, doc)
}

// TestEncodeFailureTouchesNoBinding: a buffered request is encoded before
// the binding is opened, so a request that fails to encode returns the
// encode error — not a transport error — puts nothing on the wire, and
// leaves the connection to carry the next call. (Every binding's sink
// Abort retires its binding, so an encode run after opening the sink would
// cost a healthy connection.)
func TestEncodeFailureTouchesNoBinding(t *testing.T) {
	echo := func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
		return core.NewEnvelope(req.Body()), nil
	}
	cases := []struct {
		name  string
		serve func(t *testing.T, l net.Listener)
		dial  func(t *testing.T, addr string) core.Binding
	}{
		{
			"tcpbind",
			func(t *testing.T, l net.Listener) {
				srv := core.NewServer(core.BXSAEncoding{}, tcpbind.NewListener(l), echo)
				go srv.Serve()
				t.Cleanup(func() { srv.Close() })
			},
			func(_ *testing.T, addr string) core.Binding { return tcpbind.New(tcpbind.NetDialer, addr) },
		},
		{
			"httpbind",
			func(t *testing.T, l net.Listener) {
				srv := core.NewServer(core.BXSAEncoding{}, httpbind.NewListener(l), echo)
				go srv.Serve()
				t.Cleanup(func() { srv.Close() })
			},
			func(_ *testing.T, addr string) core.Binding { return httpbind.New(nil, "http://"+addr+"/soap") },
		},
		{
			"muxbind",
			func(t *testing.T, l net.Listener) {
				srv := muxbind.NewServer(core.BXSAEncoding{}, echo, muxbind.Config{})
				go srv.Serve(l)
				t.Cleanup(func() { srv.Close() })
			},
			func(t *testing.T, addr string) core.Binding {
				tr := muxbind.NewTransport(muxbind.NetDialer, addr, muxbind.WithMaxSessions(1))
				t.Cleanup(func() { tr.Close() })
				return tr.NewBinding()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rec := &recListener{Listener: l}
			tc.serve(t, rec)
			enc := failingEncoding{fail: new(atomic.Bool)}
			bind := tc.dial(t, l.Addr().String())
			eng := core.NewEngine(enc, bind)
			defer eng.Close()
			req := confMessage(false)
			call := func() error {
				_, err := eng.Call(context.Background(), req)
				return err
			}

			// A first call opens the connection, so the failed one below is
			// measured against a live exchange stream.
			if err := call(); err != nil {
				t.Fatal(err)
			}
			before, _ := rec.only(t)
			enc.fail.Store(true)
			err = call()
			if !errors.Is(err, errEncode) {
				t.Fatalf("Call = %v, want the encode error", err)
			}
			if core.IsTransportError(err) {
				t.Errorf("encode failure classified as a transport error: %v", err)
			}
			if after, _ := rec.only(t); !bytes.Equal(after, before) {
				t.Errorf("the failed encode put %d bytes on the wire", len(after)-len(before))
			}
			if p, ok := bind.(interface{ Poisoned() bool }); ok && p.Poisoned() {
				t.Error("the failed encode poisoned the binding")
			}
			enc.fail.Store(false)
			if err := call(); err != nil {
				t.Fatalf("call after the failed encode: %v", err)
			}
			rec.only(t) // all three exchanges rode one connection
		})
	}
}
