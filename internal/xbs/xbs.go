// Package xbs implements the XBS streaming binary serializer that BXSA layers
// on (paper §4). XBS is a minimalistic format supporting 1-, 2-, 4- and
// 8-byte integers, 4- and 8-byte IEEE-754 floating-point numbers, and
// one-dimensional arrays of those. Every number is aligned to a multiple of
// its type's size, counted from the start of the stream, so that a large
// array in a file can be accessed with memory-mapped I/O without copying.
// Both little-endian and big-endian byte orders are supported.
package xbs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// ByteOrder selects the wire byte order of an XBS stream.
type ByteOrder uint8

const (
	LittleEndian ByteOrder = iota
	BigEndian
)

// Native is the byte order used by default for newly produced streams. The
// paper stores data in the producer's native order and records it per frame;
// we fix little-endian as the canonical producer order (the common case on
// x86/ARM servers) and let readers of either order decode it.
const Native = LittleEndian

func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// ErrBadAlignment is returned when a reader encounters non-zero padding
// bytes, which indicates a desynchronized stream.
var ErrBadAlignment = errors.New("xbs: non-zero padding byte")

var zeroPad [8]byte

// Writer serializes XBS values to an underlying io.Writer, tracking the
// absolute stream offset to implement alignment.
type Writer struct {
	w     io.Writer
	order ByteOrder
	off   int64
}

// Reset repoints the writer at out with a fresh base offset, keeping the
// struct for reuse; pooled encoders re-aim one writer at many array regions
// instead of allocating a Writer per array.
func (w *Writer) Reset(out io.Writer, order ByteOrder, base int64) {
	w.w, w.order, w.off = out, order, base
}

// Align pads the stream with zero bytes until the offset is a multiple of
// size and returns the number of padding bytes written. size must be a power
// of two no larger than 8.
func (w *Writer) Align(size int) (int, error) {
	pad := padFor(w.off, size)
	if pad == 0 {
		return 0, nil
	}
	if err := w.writeRaw(zeroPad[:pad]); err != nil {
		return 0, err
	}
	return pad, nil
}

func padFor(off int64, size int) int {
	if size <= 1 {
		return 0
	}
	rem := int(off) & (size - 1)
	if rem == 0 {
		return 0
	}
	return size - rem
}

func (w *Writer) writeRaw(b []byte) error {
	n, err := w.w.Write(b)
	w.off += int64(n)
	return err
}

func putUint32(b []byte, v uint32, o ByteOrder) {
	if o == LittleEndian {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	} else {
		b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	}
}

func putUint64(b []byte, v uint64, o ByteOrder) {
	if o == LittleEndian {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * i))
		}
	} else {
		for i := 0; i < 8; i++ {
			b[i] = byte(v >> (8 * (7 - i)))
		}
	}
}

func getUint32(b []byte, o ByteOrder) uint32 {
	if o == LittleEndian {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	return uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24
}

func getUint64(b []byte, o ByteOrder) uint64 {
	var v uint64
	if o == LittleEndian {
		for i := 7; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for i := 0; i < 8; i++ {
			v = v<<8 | uint64(b[i])
		}
	}
	return v
}

// Reader deserializes XBS values, mirroring Writer's alignment rules.
type Reader struct {
	r       io.Reader
	order   ByteOrder
	off     int64
	scratch [8]byte
}

// Reset repoints the reader at in with a fresh base offset, keeping the
// struct for reuse (mirrors Writer.Reset).
func (r *Reader) Reset(in io.Reader, order ByteOrder, base int64) {
	r.r, r.order, r.off = in, order, base
}

// Offset returns the number of bytes consumed so far, including the base.
func (r *Reader) Offset() int64 { return r.off }

func (r *Reader) readFull(b []byte) error {
	n, err := io.ReadFull(r.r, b)
	r.off += int64(n)
	return err
}

// Align consumes padding up to the next multiple of size, verifying the
// padding bytes are zero.
func (r *Reader) Align(size int) error {
	pad := padFor(r.off, size)
	if pad == 0 {
		return nil
	}
	if err := r.readFull(r.scratch[:pad]); err != nil {
		return err
	}
	for _, b := range r.scratch[:pad] {
		if b != 0 {
			return ErrBadAlignment
		}
	}
	return nil
}

// Primitive is the set of fundamental types XBS can pack: 1/2/4/8-byte
// integers (signed and unsigned) and 4/8-byte floats. It mirrors the set of
// types usable as the T in the paper's LeafElement<T> and ArrayElement<T>.
type Primitive interface {
	~int8 | ~int16 | ~int32 | ~int64 |
		~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// SizeOf reports the encoded byte size of a primitive type.
func SizeOf[T Primitive]() int {
	var z T
	switch any(z).(type) {
	case int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

// WriteArray writes a one-dimensional array: a single alignment to the
// element size followed by the packed elements. The caller is responsible
// for having recorded the element count (BXSA stores it in the frame).
func WriteArray[T Primitive](w *Writer, a []T) error {
	size := SizeOf[T]()
	if _, err := w.Align(size); err != nil {
		return err
	}
	// Fast path: bulk-encode into a reusable buffer rather than one syscall
	// per element. This is what lets BXSA claim near-zero encoding overhead
	// for large arrays.
	const chunkElems = 4096
	buf := make([]byte, 0, chunkElems*size)
	for len(a) > 0 {
		n := len(a)
		if n > chunkElems {
			n = chunkElems
		}
		buf = buf[:0]
		for _, v := range a[:n] {
			buf = appendValue(buf, v, w.order)
		}
		if err := w.writeRaw(buf); err != nil {
			return err
		}
		a = a[n:]
	}
	return nil
}

// AppendArray appends the packed items of a to dst in byte order o and
// returns the extended slice. Unlike WriteArray it performs no alignment
// and allocates nothing beyond dst's growth, which is what the
// schema-compiled template path needs: it fills a pre-sized window of a
// cached skeleton, so per-call chunk buffers would dominate the alloc
// budget.
func AppendArray[T Primitive](dst []byte, a []T, o ByteOrder) []byte {
	for _, v := range a {
		dst = appendValue(dst, v, o)
	}
	return dst
}

// DecodeArray decodes n packed items in byte order o from the front of
// buf into a new slice — the in-memory counterpart of ReadArrayGrow, again
// without alignment or chunk buffers.
func DecodeArray[T Primitive](buf []byte, n int, o ByteOrder) ([]T, error) {
	size := SizeOf[T]()
	if n < 0 || n*size > len(buf) {
		return nil, fmt.Errorf("xbs: %d-item array needs %d bytes, buffer holds %d", n, n*size, len(buf))
	}
	out := make([]T, n)
	decodeInto(out, buf[:n*size], o)
	return out, nil
}

func appendValue[T Primitive](buf []byte, v T, o ByteOrder) []byte {
	switch x := any(v).(type) {
	case int8:
		return append(buf, byte(x))
	case uint8:
		return append(buf, x)
	case int16:
		return appendU16(buf, uint16(x), o)
	case uint16:
		return appendU16(buf, x, o)
	case int32:
		return appendU32(buf, uint32(x), o)
	case uint32:
		return appendU32(buf, x, o)
	case float32:
		return appendU32(buf, math.Float32bits(x), o)
	case int64:
		return appendU64(buf, uint64(x), o)
	case uint64:
		return appendU64(buf, x, o)
	case float64:
		return appendU64(buf, math.Float64bits(x), o)
	default:
		panic(fmt.Sprintf("xbs: unreachable primitive %T", v))
	}
}

func appendU16(buf []byte, v uint16, o ByteOrder) []byte {
	if o == LittleEndian {
		return append(buf, byte(v), byte(v>>8))
	}
	return append(buf, byte(v>>8), byte(v))
}

func appendU32(buf []byte, v uint32, o ByteOrder) []byte {
	var b [4]byte
	putUint32(b[:], v, o)
	return append(buf, b[:]...)
}

func appendU64(buf []byte, v uint64, o ByteOrder) []byte {
	var b [8]byte
	putUint64(b[:], v, o)
	return append(buf, b[:]...)
}

// ReadArrayGrow reads n packed elements written by WriteArray, growing the
// output slice batch-by-batch as data actually arrives instead of
// allocating all n elements up front. Streaming decoders use it: their
// element counts are bounded by a declared frame size rather than a
// materialized buffer, so a hostile count must not translate into a large
// allocation before the stream runs dry — here it costs at most one batch.
func ReadArrayGrow[T Primitive](r *Reader, n int) ([]T, error) {
	size := SizeOf[T]()
	if err := r.Align(size); err != nil {
		return nil, err
	}
	const chunkElems = 4096
	out := make([]T, 0, min(n, chunkElems))
	buf := make([]byte, min(n, chunkElems)*size)
	for i := 0; i < n; {
		c := n - i
		if c > chunkElems {
			c = chunkElems
		}
		if err := r.readFull(buf[:c*size]); err != nil {
			return nil, err
		}
		out = slices.Grow(out, c)[:i+c]
		decodeInto(out[i:i+c], buf[:c*size], r.order)
		i += c
	}
	return out, nil
}

func decodeInto[T Primitive](out []T, buf []byte, o ByteOrder) {
	var z T
	switch any(z).(type) {
	case int8:
		for i := range out {
			out[i] = T(int8(buf[i]))
		}
	case uint8:
		for i := range out {
			out[i] = T(buf[i])
		}
	case int16:
		for i := range out {
			out[i] = T(int16(getU16(buf[2*i:], o)))
		}
	case uint16:
		for i := range out {
			out[i] = T(getU16(buf[2*i:], o))
		}
	case int32:
		for i := range out {
			out[i] = T(int32(getUint32(buf[4*i:], o)))
		}
	case uint32:
		for i := range out {
			out[i] = T(getUint32(buf[4*i:], o))
		}
	case float32:
		for i := range out {
			out[i] = T(math.Float32frombits(getUint32(buf[4*i:], o)))
		}
	case int64:
		for i := range out {
			out[i] = T(int64(getUint64(buf[8*i:], o)))
		}
	case uint64:
		for i := range out {
			out[i] = T(getUint64(buf[8*i:], o))
		}
	case float64:
		for i := range out {
			out[i] = T(math.Float64frombits(getUint64(buf[8*i:], o)))
		}
	}
}

func getU16(b []byte, o ByteOrder) uint16 {
	if o == LittleEndian {
		return uint16(b[0]) | uint16(b[1])<<8
	}
	return uint16(b[1]) | uint16(b[0])<<8
}
