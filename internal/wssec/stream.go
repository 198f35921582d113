package wssec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

// Streamed signing (the non-blocking mode, after "Non-Blocking Signature of
// very large SOAP Messages"): the frame goes out as
//
//	[ magic chunk | inner chunk stream, HMAC'd as it passes | 32-byte tag chunk (last) ]
//
// so the first payload byte reaches the wire before the signature — or even
// the full message — exists. Inner chunks are forwarded zero-copy; only the
// rolling HMAC touches their bytes. The receive side forwards inner bytes
// to the inner decoder as they arrive, holds back the trailing 32 bytes,
// and compares the rolling HMAC against them once the stream ends —
// DecodeChunks never returns a document that failed verification. The
// concatenated chunks are AppendEncode's bytes.

// EncodeChunks implements core.Encoding.
func (s Secured[E]) EncodeChunks(doc *bxdm.Document, chunkBytes int, sink core.ChunkSink) error {
	m := core.NewPayload(len(magic))
	m.Write(magic)
	if err := sink.WriteChunk(m, false); err != nil {
		return err
	}
	ss := signingSink{sink: sink, mac: hmac.New(sha256.New, s.Key)}
	if err := s.Inner.EncodeChunks(doc, chunkBytes, ss); err != nil {
		return err
	}
	tag := core.NewPayload(sha256.Size)
	tag.Write(ss.mac.Sum(nil))
	return sink.WriteChunk(tag, true)
}

// signingSink forwards inner chunks through the rolling HMAC, demoting the
// inner encoding's last flag — the signed stream ends with the tag chunk,
// not the inner payload.
type signingSink struct {
	sink core.ChunkSink
	mac  hash.Hash
}

//paylint:transfers
func (s signingSink) WriteChunk(p *core.Payload, last bool) error {
	s.mac.Write(p.Bytes())
	return s.sink.WriteChunk(p, false)
}

func (s signingSink) Abort() { s.sink.Abort() }

// DecodeChunks implements core.Encoding: after the magic, the rolling HMAC
// is verified as inner bytes stream through to the inner decoder.
func (s Secured[E]) DecodeChunks(src core.ChunkSource) (*bxdm.Document, error) {
	head, last, err := src.ReadChunk()
	if err == nil && !last && head.Len() < len(magic) {
		// The magic spans chunk boundaries: fold the short chunks into a
		// head of our own until it is whole.
		short := head
		head = core.NewPayload(len(magic))
		head.Write(short.Bytes())
		short.Release()
		for err == nil && !last && head.Len() < len(magic) {
			var c *core.Payload
			if c, last, err = src.ReadChunk(); err == nil {
				head.Write(c.Bytes())
				c.Release()
			}
		}
	}
	if err != nil {
		head.Release()
		return nil, err
	}
	if !bytes.HasPrefix(head.Bytes(), magic) {
		head.Release()
		return nil, errNoFrame
	}
	vs := &verifySource{
		src:  core.ResumeSource(head, last, src),
		mac:  hmac.New(sha256.New, s.Key),
		skip: len(magic),
	}
	doc, err := s.Inner.DecodeChunks(vs)
	if err != nil {
		vs.src.Abort()
		return nil, err
	}
	// The inner decoder consumed its full byte stream (its trailing check
	// reads to EOF), so the tag hold-back is complete; nothing is released
	// to the caller before this comparison passes.
	if err := vs.verify(); err != nil {
		return nil, err
	}
	return doc, nil
}

// verifySource sits between the transport and the inner decoder: it strips
// the magic, holds back the final sha256.Size bytes (the tag), MACs
// everything it forwards, and presents exactly the inner byte stream —
// ending where the inner encoding expects EOF. Boundary shifting means one
// copy per chunk on receive; the send side stays zero-copy.
type verifySource struct {
	src  core.ChunkSource
	mac  hash.Hash
	skip int // magic bytes still to strip
	tail [sha256.Size]byte
	tlen int
	done bool // we emitted our last chunk
}

//paylint:returns owned
func (v *verifySource) ReadChunk() (*core.Payload, bool, error) {
	if v.done {
		return nil, false, fmt.Errorf("wssec: read past end of authenticated stream")
	}
	c, last, err := v.src.ReadChunk()
	if err != nil {
		return nil, false, err
	}
	b := c.Bytes()
	if v.skip > 0 {
		k := min(v.skip, len(b))
		v.skip -= k
		b = b[k:]
	}
	// Forward all but the newest sha256.Size bytes of tail+b; retain those
	// as the candidate tag.
	n := v.tlen + len(b)
	fwd := n - sha256.Size
	if fwd < 0 {
		fwd = 0
	}
	if last && n < sha256.Size {
		c.Release()
		return nil, false, fmt.Errorf("wssec: message too short for authentication tag")
	}
	out := core.NewPayload(fwd)
	k := min(fwd, v.tlen)
	out.Write(v.tail[:k])
	copy(v.tail[:], v.tail[k:v.tlen])
	v.tlen -= k
	k = fwd - k // bytes of b to forward
	out.Write(b[:k])
	v.tlen += copy(v.tail[v.tlen:], b[k:])
	c.Release()
	v.mac.Write(out.Bytes())
	if last {
		v.done = true
	}
	return out, last, nil
}

func (v *verifySource) Abort() { v.src.Abort() }

// verify compares the held-back tag with the rolling HMAC of everything
// forwarded. Only valid once the stream fully drained (v.done).
func (v *verifySource) verify() error {
	if !v.done || v.tlen != sha256.Size {
		return fmt.Errorf("wssec: authenticated stream not fully consumed")
	}
	if !hmac.Equal(v.tail[:], v.mac.Sum(nil)) {
		return ErrBadSignature
	}
	return nil
}
