// Package wssec demonstrates the paper's policy extensibility claim (§5:
// "It will be straightforward to introduce more policies (e.g., a security
// policy) into the generic engine"): Secured wraps any encoding policy and
// adds message authentication, so a secured engine is composed as
//
//	core.NewEngine(wssec.Secure(core.BXSAEncoding{}, key), binding)
//
// — a compile-time composition exactly like the paper's template-parameter
// stacking, usable with every binding and both base encodings. The envelope
// bytes produced by the inner policy are wrapped in one authenticated frame,
//
//	[ "BXS2" | inner payload | 32-byte HMAC-SHA256 tag ]
//
// whether the message is buffered or streamed: the tag trails the data it
// signs, so a streamed encoder can emit payload bytes before the tag exists
// (stream.go), and a buffered message is the frame's one-chunk case —
// streamed and buffered secured bytes are identical.
package wssec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
)

var magic = []byte("BXS2")

// ErrBadSignature is returned when verification fails.
var ErrBadSignature = errors.New("wssec: signature verification failed")

var errNoFrame = errors.New("wssec: missing authentication frame")

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

// AppendEncode implements core.Encoding: the magic, the inner policy
// appending in place after it, and the tag appended over those inner bytes,
// so securing adds no extra payload copy.
func (s Secured[E]) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	dst = append(dst, magic...)
	start := len(dst)
	out, err := s.Inner.AppendEncode(dst, doc)
	if err != nil {
		return nil, err
	}
	mac := hmac.New(sha256.New, s.Key)
	mac.Write(out[start:])
	return mac.Sum(out), nil
}

// Decode implements core.Encoding: verify, strip, delegate. A message that
// reaches the codec whole — however it was sent — is verified here.
func (s Secured[E]) Decode(data []byte) (*bxdm.Document, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("wssec: message too short for authentication frame")
	}
	if !bytes.HasPrefix(data, magic) {
		return nil, errNoFrame
	}
	body := data[len(magic):]
	payload, tag := body[:len(body)-sha256.Size], body[len(body)-sha256.Size:]
	mac := hmac.New(sha256.New, s.Key)
	mac.Write(payload)
	if !hmac.Equal(tag, mac.Sum(nil)) {
		return nil, ErrBadSignature
	}
	return s.Inner.Decode(payload)
}
