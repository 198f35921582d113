package main

import (
	"context"
	"io"

	"bxsoap/internal/core"
)

// layers holds the public entry points the traced pass times from outside,
// with the composition's type parameters erased: the client's codec and
// binding (what Engine.Call drives in this order) and the server's codec
// and dispatcher (driven in memory, without a connection).
type layers struct {
	binding     string // "tcpbind", "httpbind" or "muxbind"
	streamed    bool
	contentType string
	bind        core.Binding
	// serverRunsIn names the client-side span the server works inside:
	// httpbind's SendRequest returns with the response headers, the framed
	// bindings return from SendRequest once the request is written.
	serverRunsIn string

	encode       func(*core.Envelope) (*core.Payload, error)
	decode       func(*core.Payload) (*core.Envelope, error)
	encodeChunks func(*core.Envelope, core.ChunkSink) error
	decodeChunks func(core.ChunkSource) (*core.Envelope, error)

	serverDecode       func(*core.Payload) (*core.Envelope, error)
	serverDecodeChunks func(core.ChunkSource) (*core.Envelope, error)
	dispatch           func(context.Context, *core.Payload) (*core.Payload, error)
	dispatchStream     func(context.Context, core.ChunkSource, core.ChunkSink) error
}

func newLayers[E core.Encoding, B core.Binding](binding string, eng *core.Engine[E, B], disp *core.Dispatcher[E]) layers {
	cc, sc := eng.Codec(), disp.Codec()
	ct := cc.ContentType()
	serverRunsIn := binding + ".wait"
	if binding == "httpbind" {
		serverRunsIn = binding + ".send"
	}
	return layers{
		serverRunsIn: serverRunsIn,
		binding:      binding,
		streamed:     eng.Streaming() > 0,
		contentType:  ct,
		bind:         eng.Binding(),

		encode: cc.EncodePayload,
		decode: cc.DecodePayload,
		encodeChunks: func(e *core.Envelope, sink core.ChunkSink) error {
			return cc.EncodeChunks(e, chunkBytes, sink)
		},
		decodeChunks: cc.DecodeChunks,

		serverDecode:       sc.DecodePayload,
		serverDecodeChunks: sc.DecodeChunks,
		dispatch: func(ctx context.Context, req *core.Payload) (*core.Payload, error) {
			sp := disp.Observer().Span()
			return disp.DispatchPayload(ctx, req, ct, &sp, nil)
		},
		dispatchStream: func(ctx context.Context, src core.ChunkSource, sink core.ChunkSink) error {
			sp := disp.Observer().Span()
			return sc.EncodeChunks(disp.DispatchStream(ctx, src, ct, &sp, nil), chunkBytes, sink)
		},
	}
}

// collectSink keeps a copy of every chunk written to it: the in-memory
// stand-in for a connection on the encode side.
type collectSink struct{ chunks [][]byte }

func (s *collectSink) WriteChunk(p *core.Payload, _ bool) error {
	s.chunks = append(s.chunks, append([]byte(nil), p.Bytes()...))
	p.Release()
	return nil
}

func (s *collectSink) Abort() {}

// discardSink releases every chunk written to it.
type discardSink struct{}

func (discardSink) WriteChunk(p *core.Payload, _ bool) error { p.Release(); return nil }
func (discardSink) Abort()                                   {}

// memSource replays collected chunks as one message.
type memSource struct {
	chunks [][]byte
	next   int
}

func (s *memSource) ReadChunk() (*core.Payload, bool, error) {
	if s.next == len(s.chunks) {
		return nil, false, io.EOF
	}
	p := core.NewPayloadFrom(s.chunks[s.next])
	s.next++
	return p, s.next == len(s.chunks), nil
}

func (s *memSource) Abort() {}
