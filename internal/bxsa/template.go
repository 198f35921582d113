package bxsa

// Schema-compiled encode/decode templates. Because a BXSA message's layout
// depends only on its shape (frame sizes are position-independent, array
// slack is fixed-width, string lengths and array counts are part of the
// shape key), one generic encode of a representative document yields a
// reusable skeleton plus the windows where every variable value lives.
// Encoding another message of the same shape is then a memcpy of the
// skeleton and a handful of in-place window fills via the splice API;
// decoding is a static-byte comparison plus window parses. The plan cache
// in internal/core fronts these templates per shape.

import (
	"bytes"
	"fmt"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/shape"
	"bxsoap/internal/xbs"
)

// slot is one variable window of a template, in emit (= byte) order.
type slot struct {
	win   Window
	kind  bxdm.Kind
	code  bxdm.TypeCode
	count int // array item count (KindArrayElement only)
}

// recordLeaf notes the value window of the leaf scalar that emitScalar just
// wrote, whose type byte landed at offset start.
func (e *encoding) recordLeaf(v bxdm.Value, start int) {
	s := slot{kind: bxdm.KindLeafElement, code: v.Type()}
	switch v.Type() {
	case bxdm.TString:
		n := len(v.Text())
		s.win = Window{Off: e.sink.offset() - n, Len: n}
	default:
		// Type byte at start, then the fixed-width payload (bool: 1 byte).
		s.win = Window{Off: start + 1, Len: e.sink.offset() - start - 1}
	}
	e.slots = append(e.slots, s)
}

// Template is a compiled encode/decode plan for one message shape: the
// full encoded bytes of a representative document with the variable
// windows identified. It is immutable after compilation and safe for
// concurrent use.
type Template struct {
	opts     EncodeOptions
	skeleton []byte
	slots    []slot
}

// CompileTemplate compiles a template from a representative document by
// re-running the generic encoder with window recording on. The variable
// slots are the document's leaf values and array payloads in pre-order —
// the same order shape.Fingerprint collects them.
func CompileTemplate(doc *bxdm.Document, opts EncodeOptions) (*Template, error) {
	e, err := newEncoding(doc, opts)
	if err != nil {
		return nil, err
	}
	e.sink.buf = make([]byte, 0, e.total)
	e.sink.base = 0
	e.record = true
	err = e.emit(doc)
	skeleton, slots := e.sink.buf, e.slots
	e.slots = nil // keep the recorded slice out of the pool's reuse
	e.release()
	if err != nil {
		return nil, err
	}
	// Windows must be in increasing byte order and in bounds: Match's
	// static-gap comparison and AppendEncode's in-place fills rely on it.
	prev := 0
	for i, s := range slots {
		if s.win.Off < prev || s.win.Len < 0 || s.win.Off+s.win.Len > len(skeleton) {
			return nil, fmt.Errorf("bxsa: template slot %d window [%d:%d) out of order", i, s.win.Off, s.win.Off+s.win.Len)
		}
		prev = s.win.Off + s.win.Len
	}
	return &Template{opts: opts, skeleton: skeleton, slots: slots}, nil
}

// Size reports the (fixed) encoded message size of the shape.
func (t *Template) Size() int { return len(t.skeleton) }

// AppendEncode appends an encoding of the shape with the given variable
// values to dst and returns the extended slice. vars must line up with the
// template's slots (same pre-order, types, string lengths and array
// counts, as guaranteed for envelopes whose shape.Fingerprint matched the
// template's); any mismatch is an error and the caller falls back to the
// generic encoder.
func (t *Template) AppendEncode(dst []byte, vars []shape.Var) ([]byte, error) {
	if len(vars) != len(t.slots) {
		return nil, fmt.Errorf("bxsa: template got %d vars, want %d", len(vars), len(t.slots))
	}
	base := len(dst)
	out := append(dst, t.skeleton...)
	msg := out[base:]
	for i := range t.slots {
		s := &t.slots[i]
		v := &vars[i]
		switch s.kind {
		case bxdm.KindLeafElement:
			if v.Data != nil || v.Value.Type() != s.code {
				return nil, fmt.Errorf("bxsa: template slot %d: leaf type mismatch", i)
			}
			switch s.code {
			case bxdm.TString:
				if err := s.win.SpliceString(msg, v.Value.Text()); err != nil {
					return nil, err
				}
			case bxdm.TBool:
				b := byte(0)
				if v.Value.Bool() {
					b = 1
				}
				msg[s.win.Off] = b
			default:
				putNative(msg[s.win.Off:s.win.Off+s.win.Len], v.Value.Bits(), t.opts.Order)
			}
		case bxdm.KindArrayElement:
			if v.Data == nil || v.Data.Type() != s.code || v.Data.Len() != s.count {
				return nil, fmt.Errorf("bxsa: template slot %d: array mismatch", i)
			}
			// Append into the prefix so the packed items land exactly in
			// the window, with no intermediate buffer. Capacity reaches at
			// least to len(msg), so this never reallocates.
			v.Data.AppendPacked(msg[:s.win.Off], t.opts.Order)
		}
	}
	return out, nil
}

// Match reports whether data is an encoding of this template's shape and,
// if so, appends the decoded variable values to *vars in slot order. A
// false return means only "not this shape" — the caller tries other
// templates or the generic decoder.
func (t *Template) Match(data []byte, vars *[]shape.Var) bool {
	if len(data) != len(t.skeleton) {
		return false
	}
	prev := 0
	for i := range t.slots {
		w := t.slots[i].win
		if !bytes.Equal(data[prev:w.Off], t.skeleton[prev:w.Off]) {
			return false
		}
		prev = w.Off + w.Len
	}
	if !bytes.Equal(data[prev:], t.skeleton[prev:]) {
		return false
	}
	mark := len(*vars)
	for i := range t.slots {
		s := &t.slots[i]
		w := data[s.win.Off : s.win.Off+s.win.Len]
		switch s.kind {
		case bxdm.KindLeafElement:
			switch s.code {
			case bxdm.TString:
				*vars = append(*vars, shape.Var{Value: bxdm.StringValue(string(w))})
			case bxdm.TBool:
				// The generic decoder rejects bool bytes > 1; so must we.
				if w[0] > 1 {
					*vars = (*vars)[:mark]
					return false
				}
				*vars = append(*vars, shape.Var{Value: bxdm.BoolValue(w[0] == 1)})
			default:
				bits := readNative(w, t.opts.Order)
				*vars = append(*vars, shape.Var{Value: valueFromBits(s.code, bits)})
			}
		case bxdm.KindArrayElement:
			d, err := bxdm.DecodePackedArray(s.code, w, s.count, t.opts.Order)
			if err != nil {
				*vars = (*vars)[:mark]
				return false
			}
			*vars = append(*vars, shape.Var{Data: d})
		}
	}
	return true
}

// putNative writes the low len(b) bytes of bits into b in the given order
// — the in-place form of appendNative.
func putNative(b []byte, bits uint64, order xbs.ByteOrder) {
	if order == xbs.LittleEndian {
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
	} else {
		n := len(b)
		for i := range b {
			b[i] = byte(bits >> (8 * (n - 1 - i)))
		}
	}
}
