package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/bxsa"
	"bxsoap/internal/core"
	"bxsoap/internal/shape"
	"bxsoap/internal/wssec"
	"bxsoap/internal/xbs"
	"bxsoap/internal/xmltext"
)

var (
	xmlEncodeOpts = xmltext.EncodeOptions{TypeHints: true}
	xmlDecodeOpts = xmltext.DecodeOptions{RecoverTypes: true, DropInterElementWhitespace: true}
)

// rung is one message prepared for the in-memory ladder: the forms each
// layer takes as input, produced once outside the timed loops.
type rung struct {
	m       *message
	doc     *bxdm.Document
	packed  []byte   // xbs form of the values array
	tokens  [][]byte // lexical form of the values array, one token per item
	bxsa    []byte
	xml     []byte
	wire    [][]byte // the request as the client's codec encodes it, by chunk
	wireLen int      // request plus reply bytes as encoded, without framing
}

func chunksLen(chunks [][]byte) (n int) {
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// prepare encodes every message once through the client's codec and the
// server's dispatcher, which also leaves both plan caches as warm as two
// passes over the message set leave them.
func prepare(w *workload, l *layers, msgs []*message) ([]*rung, error) {
	ctx := context.Background()
	rungs := make([]*rung, len(msgs))
	for i, m := range msgs {
		g := &rung{
			m:      m,
			doc:    m.env.Document(),
			packed: xbs.AppendArray(nil, m.model.Values, xbs.Native),
		}
		var err error
		if w.xml {
			vals := bxdm.Array[float64]{Items: m.model.Values}
			g.tokens = bytes.Split(vals.AppendAllLexical(nil, " "), []byte(" "))
			g.xml, err = xmltext.AppendEncode(nil, g.doc, xmlEncodeOpts)
		} else {
			g.bxsa, err = bxsa.MarshalAppend(nil, g.doc, bxsa.EncodeOptions{})
		}
		if err != nil {
			return nil, err
		}
		var req, resp collectSink
		if l.streamed {
			if err := l.encodeChunks(m.env, &req); err != nil {
				return nil, err
			}
			if err := l.dispatchStream(ctx, &memSource{chunks: req.chunks}, &resp); err != nil {
				return nil, err
			}
		} else {
			p, err := l.encode(m.env)
			if err != nil {
				return nil, err
			}
			req.WriteChunk(p, true)
			in := core.NewPayloadFrom(req.chunks[0])
			out, err := l.dispatch(ctx, in)
			in.Release()
			if err != nil {
				return nil, err
			}
			resp.WriteChunk(out, true)
		}
		g.wire = req.chunks
		g.wireLen = chunksLen(req.chunks) + chunksLen(resp.chunks)
		rungs[i] = g
	}
	return rungs, nil
}

// sink keeps the ladder's results alive so the compiler cannot drop the
// calls that produce them.
var sink any

// runLadder times each layer's public functions on the workload's own
// messages, one goroutine, no connection: iters timed iterations per row
// after two untimed passes over the message set, median reported. Rows a
// workload's composition never executes are left out (and print as 0).
func runLadder(t *tracer, w *workload, l *layers, rungs []*rung, iters int, out map[string]float64) error {
	ctx := context.Background()
	sec := wssec.Secure(core.BXSAEncoding{}, hmacKey)
	var buf []byte
	var vars []shape.Var

	type row struct {
		name   string
		on     bool
		allocs bool // also report allocations per iteration
		fn     func(g *rung) error
	}
	rows := []row{
		{"xbs.pack", true, false, func(g *rung) error {
			buf = xbs.AppendArray(buf[:0], g.m.model.Values, xbs.Native)
			return nil
		}},
		{"xbs.unpack", true, false, func(g *rung) error {
			v, err := xbs.DecodeArray[float64](g.packed, len(g.m.model.Values), xbs.Native)
			sink = v
			return err
		}},
		{"bxdm.lexical_format", w.xml, false, func(g *rung) error {
			buf = bxdm.Array[float64]{Items: g.m.model.Values}.AppendAllLexical(buf[:0], " ")
			return nil
		}},
		{"bxdm.lexical_parse", w.xml, false, func(g *rung) error {
			b, err := bxdm.NewArrayBuilder(bxdm.TFloat64)
			if err != nil {
				return err
			}
			for _, tok := range g.tokens {
				if err := b.AppendLexicalBytes(tok); err != nil {
					return err
				}
			}
			sink = b.Data()
			return nil
		}},
		{"bxsa.encode", !w.xml, false, func(g *rung) (err error) {
			buf, err = bxsa.MarshalAppend(buf[:0], g.doc, bxsa.EncodeOptions{})
			return err
		}},
		{"bxsa.decode", !w.xml, false, func(g *rung) error {
			n, err := bxsa.Parse(g.bxsa)
			sink = n
			return err
		}},
		{"xmltext.encode", w.xml, false, func(g *rung) (err error) {
			buf, err = xmltext.AppendEncode(buf[:0], g.doc, xmlEncodeOpts)
			return err
		}},
		{"xmltext.decode", w.xml, false, func(g *rung) error {
			d, err := xmltext.Parse(g.xml, xmlDecodeOpts)
			sink = d
			return err
		}},
		{"shape.fingerprint", w.templates, false, func(g *rung) error {
			vars = vars[:0]
			if _, ok := shape.Fingerprint(g.m.env.HeaderEntries, g.m.env.BodyChildren, &vars); !ok {
				return fmt.Errorf("shape.Fingerprint rejected the request")
			}
			return nil
		}},
		{"core.codec_encode", true, true, func(g *rung) error {
			if l.streamed {
				return l.encodeChunks(g.m.env, discardSink{})
			}
			p, err := l.encode(g.m.env)
			if err == nil {
				p.Release()
			}
			return err
		}},
		{"core.codec_decode", true, true, func(g *rung) error {
			if l.streamed {
				e, err := l.serverDecodeChunks(&memSource{chunks: g.wire})
				sink = e
				return err
			}
			p := core.NewPayloadFrom(g.wire[0])
			e, err := l.serverDecode(p)
			p.Release()
			sink = e
			return err
		}},
		{"wssec.encode", w.signed, false, func(g *rung) error {
			return sec.EncodeChunks(g.doc, chunkBytes, discardSink{})
		}},
		{"wssec.decode", w.signed, false, func(g *rung) error {
			d, err := sec.DecodeChunks(&memSource{chunks: g.wire})
			sink = d
			return err
		}},
		{"core.dispatch", true, false, func(g *rung) error {
			if l.streamed {
				return l.dispatchStream(ctx, &memSource{chunks: g.wire}, discardSink{})
			}
			p := core.NewPayloadFrom(g.wire[0])
			out, err := l.dispatch(ctx, p)
			p.Release()
			if err == nil {
				out.Release()
			}
			return err
		}},
	}
	for _, r := range rows {
		if !r.on {
			continue
		}
		for i := 0; i < 2*len(rungs); i++ {
			if err := r.fn(rungs[i%len(rungs)]); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		var ms0, ms1 runtime.MemStats
		if r.allocs {
			runtime.ReadMemStats(&ms0)
		}
		for i := 0; i < iters; i++ {
			t.call.Store(int64(i))
			start := time.Now()
			err := r.fn(rungs[i%len(rungs)])
			t.span(int64(i), r.name, "ladder", start, time.Now())
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		if r.allocs {
			runtime.ReadMemStats(&ms1)
			out[r.name+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)
		}
		out[r.name+"_ns"] = t.take(r.name)
	}
	out["core.handler_ns"] = t.take("core.handler")
	return nil
}
