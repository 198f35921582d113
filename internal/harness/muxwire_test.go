package harness

import (
	"bytes"
	"context"
	"net"
	"testing"

	"bxsoap/internal/core"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/vls"
)

// The muxbind wire form, checked like the conformance table's tcpbind
// cells against bytes built from the frame layout in muxbind's doc.go
// rather than by its writers: a message that is one chunk must be one DATA
// frame, byte for byte, and a longer one a run of CHUNK frames whose bodies
// concatenate to the message.

// muxFrame is one frame cut out of a recorded byte stream.
type muxFrame struct {
	typ    byte
	stream uint64
	raw    []byte // the whole frame
	body   []byte // DATA and CHUNK payload
}

// splitMuxFrames cuts a recorded stream into frames by doc.go's layout.
func splitMuxFrames(t *testing.T, b []byte) []muxFrame {
	t.Helper()
	var out []muxFrame
	for len(b) > 0 {
		pos := 0
		next := func() uint64 {
			v, n, err := vls.Uint(b[pos:])
			if err != nil {
				t.Fatalf("frame at offset %d: %v", pos, err)
			}
			pos += n
			return v
		}
		skip := func(n uint64) []byte {
			if uint64(len(b)-pos) < n {
				t.Fatalf("frame truncated: need %d bytes, have %d", n, len(b)-pos)
			}
			s := b[pos : pos+int(n)]
			pos += int(n)
			return s
		}
		if len(b) < 4 || b[0] != 'B' || b[1] != 'X' || b[2] != 0x02 {
			t.Fatalf("bad frame header % x", b[:min(len(b), 4)])
		}
		f := muxFrame{typ: b[3]}
		pos = 4
		f.stream = next()
		switch f.typ {
		case 0x00: // DATA
			skip(next())
			f.body = skip(next())
		case 0x04: // CHUNK
			if flags := skip(1)[0]; flags&0x01 != 0 {
				skip(next())
			}
			f.body = skip(next())
		case 0x02: // CREDIT
			next()
		case 0x01: // RST
			next()
			skip(next())
		default:
			t.Fatalf("unexpected frame type %#x", f.typ)
		}
		f.raw, b = b[:pos], b[pos:]
		out = append(out, f)
	}
	return out
}

// checkMuxMessage asserts the frames a message travelled in on stream 1:
// one DATA frame equal to the layout's bytes when oneChunk, otherwise a run
// of CHUNK frames carrying the message.
func checkMuxMessage(t *testing.T, what string, frames []muxFrame, oneChunk bool, ct string, body []byte) {
	t.Helper()
	var msg []muxFrame
	for _, f := range frames {
		if f.stream == 1 {
			msg = append(msg, f)
		}
	}
	if oneChunk {
		golden := []byte{'B', 'X', 0x02, 0x00, 0x01}
		golden = vls.AppendUint(golden, uint64(len(ct)))
		golden = append(golden, ct...)
		golden = vls.AppendUint(golden, uint64(len(body)))
		golden = append(golden, body...)
		if len(msg) != 1 || !bytes.Equal(msg[0].raw, golden) {
			t.Errorf("%s: one-chunk message is not one DATA frame (%d frames)", what, len(msg))
		}
		return
	}
	var got []byte
	for _, f := range msg {
		if f.typ != 0x04 {
			t.Errorf("%s: multi-chunk message carries a frame of type %#x", what, f.typ)
		}
		got = append(got, f.body...)
	}
	if len(msg) < 2 || !bytes.Equal(got, body) {
		t.Errorf("%s: multi-chunk message is not a CHUNK run carrying it (%d frames)", what, len(msg))
	}
}

func TestMuxWireForm(t *testing.T) {
	cases := []struct {
		name            string
		streamed        bool
		serverWindow    int
		many            bool
		reqOne, respOne bool
	}{
		{"Call/server-window-0", false, 0, false, true, true},
		{"Call/server-windowed", false, confWindow, false, true, true},
		{"Call/server-windowed/many", false, confWindow, true, true, true},
		{"CallStream/server-window-0", true, 0, false, true, true},
		{"CallStream/server-windowed", true, confWindow, false, true, true},
		{"CallStream/server-window-0/many", true, 0, true, false, true},
		{"CallStream/server-windowed/many", true, confWindow, true, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			rec := &recListener{Listener: l}
			srv := muxbind.NewServer(core.BXSAEncoding{}, func(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
				return core.NewEnvelope(req.Body()), nil
			}, muxbind.Config{ChunkBytes: tc.serverWindow})
			go srv.Serve(rec)
			tr := muxbind.NewTransport(muxbind.NetDialer, l.Addr().String(), muxbind.WithMaxSessions(1))
			var opts []core.EngineOption
			if tc.streamed {
				opts = append(opts, core.WithStreaming(confWindow))
			}
			eng := core.NewEngine(core.BXSAEncoding{}, tr.NewBinding(), opts...)
			call := eng.Call
			if tc.streamed {
				call = eng.CallStream
			}
			req := confMessage(tc.many)
			resp, err := call(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			want := core.NewEnvelope(req.Body())
			if !resp.Equal(want) {
				t.Error("echoed tree differs from the request's")
			}
			tr.Close()
			srv.Close()

			codec := eng.Codec()
			reqBody, err := codec.EncodeBytes(req)
			if err != nil {
				t.Fatal(err)
			}
			respBody, err := codec.EncodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			in, out := rec.only(t)
			checkMuxMessage(t, "request", splitMuxFrames(t, in), tc.reqOne, codec.ContentType(), reqBody)
			checkMuxMessage(t, "response", splitMuxFrames(t, out), tc.respOne, codec.ContentType(), respBody)
		})
	}
}
