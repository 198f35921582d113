// Package framing is the frame prefix tcpbind and muxbind share: the
// "BX" magic, the bounded content-type field and the length-prefixed pooled
// body that every message or chunk frame of either binding carries after
// its own header. Each length prefix is validated against its bound BEFORE
// any buffer is sized from it, so a hostile or desynchronized peer can
// never drive an allocation with a number alone.
package framing

import (
	"bufio"
	"fmt"
	"io"

	"bxsoap/internal/core"
	"bxsoap/internal/vls"
)

const (
	// Magic0 and Magic1 open every frame of both bindings.
	Magic0, Magic1 = 'B', 'X'

	// MaxFrameSize bounds one frame's body — a whole buffered message, or
	// one chunk of a streamed one.
	MaxFrameSize = core.MaxMessageSize

	// MaxContentTypeLen bounds the content-type field.
	MaxContentTypeLen = 1024
)

// ContentType holds one connection's receive-side reuse state for the
// content-type field: a scratch buffer and a cache of its string form. The
// same peer sends the same content type on every frame, so steady state
// reads the field with no allocation.
type ContentType struct {
	scratch [MaxContentTypeLen]byte
	last    string
}

// Read reads a VLS-length-prefixed content type.
func (c *ContentType) Read(r *bufio.Reader) (string, error) {
	n, err := vls.ReadUint(r)
	if err != nil {
		return "", err
	}
	if n > MaxContentTypeLen {
		return "", fmt.Errorf("framing: content-type length %d too large", n)
	}
	b := c.scratch[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	if string(b) != c.last {
		c.last = string(b)
	}
	return c.last, nil
}

// ReadBody reads a VLS-length-prefixed body into a pooled payload the
// caller owns. The payload grows as bytes actually arrive, bounding what a
// lying-but-in-range length can allocate ahead of real data.
//
//paylint:returns owned
func ReadBody(r *bufio.Reader) (*core.Payload, error) {
	n, err := vls.ReadUint(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("framing: frame length %d exceeds limit", n)
	}
	return core.ReadPayload(r, int64(n), MaxFrameSize)
}

// WriteContentType appends the length-prefixed content type to w.
func WriteContentType(w *bufio.Writer, ct string) {
	vls.WriteUint(w, uint64(len(ct)))
	w.WriteString(ct)
}

// WriteBody appends the length-prefixed body to w. bufio.Writer latches
// its first error, so the caller's Flush reports any failure from here.
func WriteBody(w *bufio.Writer, body []byte) {
	vls.WriteUint(w, uint64(len(body)))
	w.Write(body)
}
