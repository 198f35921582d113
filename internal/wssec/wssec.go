// Package wssec demonstrates the paper's policy extensibility claim (§5:
// "It will be straightforward to introduce more policies (e.g., a security
// policy) into the generic engine"): Secured wraps any encoding policy and
// adds message authentication, so a secured engine is composed as
//
//	core.NewEngine(wssec.Secure(core.BXSAEncoding{}, key), binding)
//
// — a compile-time composition exactly like the paper's template-parameter
// stacking, usable with every binding and both base encodings. The envelope
// bytes produced by the inner policy are wrapped in a small authenticated
// frame carrying an HMAC-SHA256 tag.
package wssec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

var magic = []byte("BXS1")

// ErrBadSignature is returned when verification fails.
var ErrBadSignature = errors.New("wssec: signature verification failed")

// Secured is an encoding policy that authenticates another encoding
// policy's output.
type Secured[E core.Encoding] struct {
	Inner E
	Key   []byte
}

// Secure wraps an encoding policy with message authentication.
func Secure[E core.Encoding](inner E, key []byte) Secured[E] {
	return Secured[E]{Inner: inner, Key: key}
}

// Name implements core.Encoding.
func (s Secured[E]) Name() string { return s.Inner.Name() + "+HMAC" }

// ContentType implements core.Encoding.
func (s Secured[E]) ContentType() string { return s.Inner.ContentType() + `; signed="hmac-sha256"` }

// Encode implements core.Encoding: inner encoding followed by the
// authenticated framing [magic | 32-byte tag | payload].
func (s Secured[E]) Encode(w io.Writer, doc *bxdm.Document) error {
	data, err := s.AppendEncode(nil, doc)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// AppendEncode implements core.Encoding. The frame header is reserved up
// front and the inner policy appends in place after it; the tag is then
// filled into the reserved hole, so securing adds no extra payload copy.
func (s Secured[E]) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	start := len(dst)
	dst = append(dst, magic...)
	var hole [sha256.Size]byte
	dst = append(dst, hole[:]...)
	out, err := s.Inner.AppendEncode(dst, doc)
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, s.Key)
	mac.Write(out[start+len(magic)+sha256.Size:])
	mac.Sum(out[start+len(magic):start+len(magic)])
	return out, nil
}

// Decode implements core.Encoding: verify, strip, delegate. Either frame
// form is accepted — the tag leads the payload in BXS1 and trails it in the
// streamed BXS2 (stream.go) — so a message that reaches the codec whole is
// verified the same way whichever encoder produced it.
func (s Secured[E]) Decode(data []byte) (*bxdm.Document, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("wssec: message too short for authentication frame")
	}
	var tag, payload []byte
	switch body := data[len(magic):]; {
	case bytes.Equal(data[:len(magic)], magic):
		tag, payload = body[:sha256.Size], body[sha256.Size:]
	case bytes.Equal(data[:len(magic)], magic2):
		payload, tag = body[:len(body)-sha256.Size], body[len(body)-sha256.Size:]
	default:
		return nil, fmt.Errorf("wssec: missing authentication frame")
	}
	mac := hmac.New(sha256.New, s.Key)
	mac.Write(payload)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, ErrBadSignature
	}
	return s.Inner.Decode(payload)
}

// DecodeFrom implements core.Encoding. The whole frame must be in memory
// before the tag can be verified, so this is the pooled read-then-Decode
// shape shared by the base encodings.
func (s Secured[E]) DecodeFrom(r io.Reader, size int64) (*bxdm.Document, error) {
	p, err := core.ReadPayload(r, size, 0)
	if err != nil {
		return nil, err
	}
	doc, err := s.Decode(p.Bytes())
	p.Release()
	return doc, err
}
