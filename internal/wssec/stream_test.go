package wssec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"io"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

func TestStreamSignSmoke(t *testing.T) {
	items := make([]int32, 50000)
	for i := range items {
		items[i] = int32(i)
	}
	doc := &bxdm.Document{Children: []bxdm.Node{
		bxdm.NewArray(bxdm.QName{Local: "a"}, items),
	}}
	key := []byte("0123456789abcdef")
	s := Secure(core.BXSAEncoding{}, key)

	var q chunkQueue
	if err := s.EncodeChunks(doc, 8<<10, &q); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := s.DecodeChunks(&q)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, _ := s.AppendEncode(nil, doc)
	wantDoc, err := s.Decode(want)
	if err != nil {
		t.Fatalf("buffered decode: %v", err)
	}
	if !bxdm.Equal(got, wantDoc) {
		t.Fatal("streamed tree != buffered tree")
	}

	// Tampered stream must fail with ErrBadSignature.
	var q2 chunkQueue
	if err := s.EncodeChunks(doc, 8<<10, tamperSink{&q2}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	_, err = s.DecodeChunks(&q2)
	if err != ErrBadSignature {
		t.Fatalf("tampered: got %v, want ErrBadSignature", err)
	}
	q2.Abort()

	// A BXS2 message arriving as one chunk verifies.
	got2, err := s.DecodeChunks(core.ResumeSource(core.NewPayloadFrom(want), true, nil))
	if err != nil {
		t.Fatalf("BXS2 one-chunk: %v", err)
	}
	if !bxdm.Equal(got2, wantDoc) {
		t.Fatal("BXS2 one-chunk tree mismatch")
	}
	if n := core.PayloadsInUse(); n != 0 {
		t.Fatalf("leaked %d payloads", n)
	}
}

// chunkQueue is an in-process chunk queue: the sink appends, the source
// pops in order.
type chunkQueue struct{ q []queuedChunk }

type queuedChunk struct {
	p    *core.Payload
	last bool
}

func (c *chunkQueue) WriteChunk(p *core.Payload, last bool) error {
	c.q = append(c.q, queuedChunk{p, last})
	return nil
}

func (c *chunkQueue) ReadChunk() (*core.Payload, bool, error) {
	if len(c.q) == 0 {
		return nil, false, io.ErrUnexpectedEOF
	}
	x := c.q[0]
	c.q = c.q[1:]
	return x.p, x.last, nil
}

func (c *chunkQueue) Abort() {
	for _, x := range c.q {
		x.p.Release()
	}
	c.q = nil
}

type tamperSink struct{ s core.ChunkSink }

func (t tamperSink) WriteChunk(p *core.Payload, last bool) error {
	if !last && p.Len() > 100 {
		p.Bytes()[50] ^= 1
	}
	return t.s.WriteChunk(p, last)
}
func (t tamperSink) Abort() { t.s.Abort() }

// TestEncodeChunksDefaultWindow: a non-positive window is the default
// window, not an error or an endless run of empty chunks, and the chunks
// still concatenate to AppendEncode's bytes.
func TestEncodeChunksDefaultWindow(t *testing.T) {
	doc := envelope().Document()
	for _, enc := range []core.Encoding{
		core.XMLEncoding{},
		core.BXSAEncoding{},
		Secure(core.BXSAEncoding{}, key),
	} {
		want, err := enc.AppendEncode(nil, doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{0, -1} {
			sink := &chunkGather{t: t}
			if err := enc.EncodeChunks(doc, window, sink); err != nil {
				t.Fatalf("%s window %d: %v", enc.Name(), window, err)
			}
			if !sink.done {
				t.Fatalf("%s window %d: no last chunk", enc.Name(), window)
			}
			if !bytes.Equal(sink.buf, want) {
				t.Errorf("%s window %d: streamed bytes differ from AppendEncode", enc.Name(), window)
			}
		}
	}
}

// TestBXS1Rejected: the retired tag-first frame [BXS1 | tag | payload] is
// refused by every decode path, even under a valid tag, and no path hands
// back a document or keeps a payload.
func TestBXS1Rejected(t *testing.T) {
	for _, enc := range []core.Encoding{core.BXSAEncoding{}, core.XMLEncoding{}} {
		s := Secure(enc, key)
		inner, err := enc.AppendEncode(nil, envelope().Document())
		if err != nil {
			t.Fatal(err)
		}
		mac := hmac.New(sha256.New, key)
		mac.Write(inner)
		frame := append(mac.Sum([]byte("BXS1")), inner...)

		base := core.PayloadsInUse()
		decoders := map[string]func() (*bxdm.Document, error){
			"Decode": func() (*bxdm.Document, error) { return s.Decode(frame) },
			"DecodeChunks one chunk": func() (*bxdm.Document, error) {
				return s.DecodeChunks(core.ResumeSource(core.NewPayloadFrom(frame), true, nil))
			},
			"DecodeChunks re-sliced": func() (*bxdm.Document, error) {
				return s.DecodeChunks(&resliceSource{data: frame, sizes: []byte{1, 0, 3, 40}})
			},
		}
		for name, decode := range decoders {
			doc, err := decode()
			if err == nil || doc != nil {
				t.Errorf("%s %s: doc %v, err %v; want an error and no document", s.Name(), name, doc != nil, err)
			}
			if n := core.PayloadsInUse(); n != base {
				t.Errorf("%s %s: %d payloads in use, want %d", s.Name(), name, n, base)
			}
		}
	}
}
