// Package vls implements the variable-length size (VLS) integer format used
// by BXSA frames (paper §4.1).
//
// The paper specifies that frame sizes, string lengths, counts, and namespace
// scope depths are stored as "variable-length integers" but does not pin down
// the bit layout; we use the common base-128 (LEB128-style) unsigned varint:
// seven payload bits per byte, little-endian groups, high bit set on every
// byte except the last. Values up to 127 therefore cost a single byte, which
// keeps the Common Frame Prefix at its minimum two bytes for small frames.
package vls

import (
	"bufio"
	"errors"
	"io"
)

// MaxLen is the maximum encoded length of a VLS integer (a full uint64).
const MaxLen = 10

// ErrOverflow is returned when a decoded value does not fit in a uint64 or
// the encoding exceeds MaxLen bytes.
var ErrOverflow = errors.New("vls: varint overflows uint64")

// ErrTruncated is returned when the input ends in the middle of a value.
var ErrTruncated = errors.New("vls: truncated varint")

// ErrNonCanonical is returned by strict decoders for encodings with redundant
// trailing zero groups (e.g. 0x80 0x00 for zero). The codec always produces
// canonical encodings.
var ErrNonCanonical = errors.New("vls: non-canonical varint encoding")

// AppendUint appends the canonical VLS encoding of v to dst and returns the
// extended slice.
func AppendUint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// EncodedLen reports how many bytes AppendUint will use for v.
func EncodedLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Uint decodes a VLS integer from the front of buf, returning the value and
// the number of bytes consumed. It returns an error if buf is truncated or
// the value overflows.
func Uint(buf []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range buf {
		if i >= MaxLen {
			return 0, 0, ErrOverflow
		}
		if i == MaxLen-1 && b > 1 {
			// The 10th byte may only contribute the single top bit.
			return 0, 0, ErrOverflow
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, 0, ErrNonCanonical
			}
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, ErrTruncated
}

// WriteUint writes the canonical encoding of v to w and reports the number of
// bytes written. The value is encoded straight into w's free buffer space,
// so writing a frame header allocates nothing.
func WriteUint(w *bufio.Writer, v uint64) (int, error) {
	return w.Write(AppendUint(w.AvailableBuffer(), v))
}

// ReadUint reads a VLS integer from r one byte at a time. r is typically a
// *bufio.Reader; the function only needs io.ByteReader.
func ReadUint(r io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				return 0, ErrTruncated
			}
			return 0, err
		}
		if i >= MaxLen || (i == MaxLen-1 && b > 1) {
			return 0, ErrOverflow
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, ErrNonCanonical
			}
			return v, nil
		}
		shift += 7
	}
}
