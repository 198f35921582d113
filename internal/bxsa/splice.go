package bxsa

// Per-frame byte-order bits and length-prefixed bodies make encoded frames
// relocatable byte strings (§4.1 — "simpler to embed the frame within
// other documents"), and fixed-width spans of an encoded message can be
// overwritten in place. The schema-compiled template path (template.go,
// internal/core's plan cache) uses the latter: per call it splices only an
// envelope's variable leaves into a cached skeleton.

import "fmt"

// Window is a fixed-width byte span [Off, Off+Len) inside an encoded BXSA
// message. Because every frame carries its size up front and array slack
// is fixed-width, a message's layout depends only on its shape: re-encoding
// a same-shaped message moves no offsets, so a window computed once remains
// valid for every message of that shape.
type Window struct {
	Off, Len int
}

// SpliceString overwrites the window's span of msg with fill, which must
// be exactly Len bytes. The message length never changes — that is what
// keeps every other offset in the message valid.
func (w Window) SpliceString(msg []byte, fill string) error {
	if len(fill) != w.Len {
		return fmt.Errorf("bxsa: splice fill is %d bytes, window holds %d", len(fill), w.Len)
	}
	if err := w.bounds(msg); err != nil {
		return err
	}
	copy(msg[w.Off:], fill)
	return nil
}

func (w Window) bounds(msg []byte) error {
	if w.Off < 0 || w.Len < 0 || w.Off+w.Len > len(msg) {
		return fmt.Errorf("bxsa: window [%d:%d) outside %d-byte message", w.Off, w.Off+w.Len, len(msg))
	}
	return nil
}
