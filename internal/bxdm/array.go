package bxdm

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"bxsoap/internal/xbs"
)

// ArrayData is the type-erased view of an ArrayElement's packed content.
// The concrete implementation is the generic Array[T]; the interface exists
// so heterogeneous trees can hold arrays of any primitive type, while
// encoders still reach the packed representation without boxing items.
type ArrayData interface {
	// Type returns the element type code (always a numeric code).
	Type() TypeCode
	// Len returns the number of items.
	Len() int
	// ByteLen returns Len()*element size.
	ByteLen() int
	// Value boxes item i (slow path, for XPath/tests).
	Value(i int) Value
	// AppendLexical appends the XML lexical form of item i to dst.
	AppendLexical(dst []byte, i int) []byte
	// AppendAllLexical appends all items separated by sep (the textual-XML
	// rendering of the array's string value).
	AppendAllLexical(dst []byte, sep string) []byte
	// WriteXBS writes the packed items (aligned) to an XBS stream.
	WriteXBS(w *xbs.Writer) error
	// AppendPacked appends the packed items (unaligned) to dst in byte
	// order o and returns the extended slice. Templated encoders use it
	// to fill a pre-computed window without WriteXBS's chunk buffers.
	AppendPacked(dst []byte, o xbs.ByteOrder) []byte
	// EqualData reports deep equality with another ArrayData.
	EqualData(o ArrayData) bool
	// CloneData returns a deep copy.
	CloneData() ArrayData
}

// Array is the packed array payload of an ArrayElement, generic over the
// primitive item type — the direct analogue of the paper's ArrayElement<T>.
type Array[T xbs.Primitive] struct {
	Items []T
}

// ArrayTypeCode reports the TypeCode for the primitive type T.
func ArrayTypeCode[T xbs.Primitive]() TypeCode {
	var z T
	switch any(z).(type) {
	case int8:
		return TInt8
	case int16:
		return TInt16
	case int32:
		return TInt32
	case int64:
		return TInt64
	case uint8:
		return TUint8
	case uint16:
		return TUint16
	case uint32:
		return TUint32
	case uint64:
		return TUint64
	case float32:
		return TFloat32
	case float64:
		return TFloat64
	default:
		panic(fmt.Sprintf("bxdm: unreachable primitive %T", z))
	}
}

// Type implements ArrayData.
func (a Array[T]) Type() TypeCode { return ArrayTypeCode[T]() }

// Len implements ArrayData.
func (a Array[T]) Len() int { return len(a.Items) }

// ByteLen implements ArrayData.
func (a Array[T]) ByteLen() int { return len(a.Items) * xbs.SizeOf[T]() }

// Value implements ArrayData.
func (a Array[T]) Value(i int) Value { return ValueOf(a.Items[i]) }

// AppendLexical implements ArrayData.
func (a Array[T]) AppendLexical(dst []byte, i int) []byte {
	return appendPrimLexical(dst, a.Items[i])
}

// AppendAllLexical implements ArrayData.
func (a Array[T]) AppendAllLexical(dst []byte, sep string) []byte {
	for i, v := range a.Items {
		if i > 0 {
			dst = append(dst, sep...)
		}
		dst = appendPrimLexical(dst, v)
	}
	return dst
}

func appendPrimLexical[T xbs.Primitive](dst []byte, v T) []byte {
	switch x := any(v).(type) {
	case int8:
		return strconv.AppendInt(dst, int64(x), 10)
	case int16:
		return strconv.AppendInt(dst, int64(x), 10)
	case int32:
		return strconv.AppendInt(dst, int64(x), 10)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case uint8:
		return strconv.AppendUint(dst, uint64(x), 10)
	case uint16:
		return strconv.AppendUint(dst, uint64(x), 10)
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10)
	case uint64:
		return strconv.AppendUint(dst, x, 10)
	case float32:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 32)
	case float64:
		return appendFloat64Lexical(dst, x)
	default:
		panic(fmt.Sprintf("bxdm: unreachable primitive %T", v))
	}
}

// eighthSuffix is the shortest decimal form of k/8 for k in [0,8).
var eighthSuffix = [8]string{"", ".125", ".25", ".375", ".5", ".625", ".75", ".875"}

// appendFloat64Lexical is strconv.AppendFloat(dst, v, 'g', -1, 64) with a
// fast path for values quantized to multiples of 1/8 — the common shape of
// sensor-style payloads (the testbed dataset is eighths by construction) —
// which skips the shortest-representation search entirely. The fast path is
// byte-identical to strconv in its accepted range: for |v| < 10^6 the
// rounding interval of v is narrower than half the spacing of any shorter
// decimal, so the exact form <int>[.eighth] is the unique shortest
// representation, and shortest 'g' stays in fixed notation below 10^6
// (above it switches to exponent form). Everything else — including
// negative zero — falls through to strconv.
func appendFloat64Lexical(dst []byte, v float64) []byte {
	t := v * 8
	if i := int64(t); float64(i) == t && i > -8_000_000 && i < 8_000_000 && (i != 0 || !math.Signbit(v)) {
		ip, fr := i/8, i%8
		if fr < 0 {
			fr = -fr
		}
		if ip == 0 && i < 0 {
			dst = append(dst, '-') // -0.125 .. -0.875 have no sign on ip
		}
		dst = strconv.AppendInt(dst, ip, 10)
		return append(dst, eighthSuffix[fr]...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// WriteXBS implements ArrayData.
func (a Array[T]) WriteXBS(w *xbs.Writer) error { return xbs.WriteArray(w, a.Items) }

// AppendPacked implements ArrayData.
func (a Array[T]) AppendPacked(dst []byte, o xbs.ByteOrder) []byte {
	return xbs.AppendArray(dst, a.Items, o)
}

// EqualData implements ArrayData. Float items compare by bit pattern so NaN
// payloads survive round-trip checks.
func (a Array[T]) EqualData(o ArrayData) bool {
	b, ok := o.(Array[T])
	if !ok || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !primEqual(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}

func primEqual[T xbs.Primitive](x, y T) bool {
	switch a := any(x).(type) {
	case float32:
		return math.Float32bits(a) == math.Float32bits(any(y).(float32))
	case float64:
		return math.Float64bits(a) == math.Float64bits(any(y).(float64))
	default:
		return x == y
	}
}

// CloneData implements ArrayData.
func (a Array[T]) CloneData() ArrayData {
	items := make([]T, len(a.Items))
	copy(items, a.Items)
	return Array[T]{Items: items}
}

// ReadArrayXBSGrow reads n packed items of the given type code from an XBS
// stream and returns them as type-erased ArrayData (the decode counterpart
// of ArrayData.WriteXBS). It allocates as data arrives
// (xbs.ReadArrayGrow): stream decoders use it because their counts are
// declared by the sender rather than bounded by a buffer already in hand,
// so a hostile count must not become a large upfront allocation.
func ReadArrayXBSGrow(r *xbs.Reader, code TypeCode, n int) (ArrayData, error) {
	switch code {
	case TInt8:
		items, err := xbs.ReadArrayGrow[int8](r, n)
		return Array[int8]{Items: items}, err
	case TInt16:
		items, err := xbs.ReadArrayGrow[int16](r, n)
		return Array[int16]{Items: items}, err
	case TInt32:
		items, err := xbs.ReadArrayGrow[int32](r, n)
		return Array[int32]{Items: items}, err
	case TInt64:
		items, err := xbs.ReadArrayGrow[int64](r, n)
		return Array[int64]{Items: items}, err
	case TUint8:
		items, err := xbs.ReadArrayGrow[uint8](r, n)
		return Array[uint8]{Items: items}, err
	case TUint16:
		items, err := xbs.ReadArrayGrow[uint16](r, n)
		return Array[uint16]{Items: items}, err
	case TUint32:
		items, err := xbs.ReadArrayGrow[uint32](r, n)
		return Array[uint32]{Items: items}, err
	case TUint64:
		items, err := xbs.ReadArrayGrow[uint64](r, n)
		return Array[uint64]{Items: items}, err
	case TFloat32:
		items, err := xbs.ReadArrayGrow[float32](r, n)
		return Array[float32]{Items: items}, err
	case TFloat64:
		items, err := xbs.ReadArrayGrow[float64](r, n)
		return Array[float64]{Items: items}, err
	default:
		return nil, fmt.Errorf("bxdm: type code %v is not an array item type", code)
	}
}

// DecodePackedArray decodes n packed items of the given type code from
// the front of buf — the in-memory counterpart of ReadArrayXBSGrow, used by
// decoders that already hold the packed data.
func DecodePackedArray(code TypeCode, buf []byte, n int, o xbs.ByteOrder) (ArrayData, error) {
	switch code {
	case TInt8:
		items, err := xbs.DecodeArray[int8](buf, n, o)
		return Array[int8]{Items: items}, err
	case TInt16:
		items, err := xbs.DecodeArray[int16](buf, n, o)
		return Array[int16]{Items: items}, err
	case TInt32:
		items, err := xbs.DecodeArray[int32](buf, n, o)
		return Array[int32]{Items: items}, err
	case TInt64:
		items, err := xbs.DecodeArray[int64](buf, n, o)
		return Array[int64]{Items: items}, err
	case TUint8:
		items, err := xbs.DecodeArray[uint8](buf, n, o)
		return Array[uint8]{Items: items}, err
	case TUint16:
		items, err := xbs.DecodeArray[uint16](buf, n, o)
		return Array[uint16]{Items: items}, err
	case TUint32:
		items, err := xbs.DecodeArray[uint32](buf, n, o)
		return Array[uint32]{Items: items}, err
	case TUint64:
		items, err := xbs.DecodeArray[uint64](buf, n, o)
		return Array[uint64]{Items: items}, err
	case TFloat32:
		items, err := xbs.DecodeArray[float32](buf, n, o)
		return Array[float32]{Items: items}, err
	case TFloat64:
		items, err := xbs.DecodeArray[float64](buf, n, o)
		return Array[float64]{Items: items}, err
	default:
		return nil, fmt.Errorf("bxdm: type code %v is not an array item type", code)
	}
}

// ArrayBuilder accumulates lexical items and produces packed ArrayData. It
// is used by the textual-XML decoder when type hints identify an array, so
// that XML→bXDM recovers the packed representation.
type ArrayBuilder interface {
	// AppendLexical parses and appends one item.
	AppendLexical(s string) error
	// AppendLexicalBytes parses and appends one item from bytes the caller
	// may reuse afterwards (the builder never retains them). It exists so
	// byte-oriented parsers can feed items without a per-item string copy.
	AppendLexicalBytes(s []byte) error
	// Data returns the packed array built so far.
	Data() ArrayData
}

type typedBuilder[T xbs.Primitive] struct {
	items []T
	parse func(string) (T, error)
}

func (b *typedBuilder[T]) AppendLexical(s string) error {
	v, err := b.parse(s)
	if err != nil {
		return err
	}
	b.items = append(b.items, v)
	return nil
}

func (b *typedBuilder[T]) AppendLexicalBytes(s []byte) error {
	if len(s) == 0 {
		return b.AppendLexical("")
	}
	// The parse funcs are strconv wrappers that only read their argument,
	// so viewing the caller's bytes as a string is safe on the happy path.
	// Errors re-parse from a copied string: strconv error values embed the
	// input, which must not alias a buffer the caller will recycle.
	v, err := b.parse(unsafe.String(unsafe.SliceData(s), len(s)))
	if err != nil {
		return b.AppendLexical(string(s))
	}
	b.items = append(b.items, v)
	return nil
}

func (b *typedBuilder[T]) Data() ArrayData { return Array[T]{Items: b.items} }

// NewArrayBuilder returns a builder that accumulates lexical items of the
// given type code and produces packed ArrayData. Used by the textual-XML
// decoder when it recovers an array via type hints.
func NewArrayBuilder(code TypeCode) (ArrayBuilder, error) {
	switch code {
	case TInt8:
		return &typedBuilder[int8]{parse: func(s string) (int8, error) {
			n, err := strconv.ParseInt(s, 10, 8)
			return int8(n), err
		}}, nil
	case TInt16:
		return &typedBuilder[int16]{parse: func(s string) (int16, error) {
			n, err := strconv.ParseInt(s, 10, 16)
			return int16(n), err
		}}, nil
	case TInt32:
		return &typedBuilder[int32]{parse: func(s string) (int32, error) {
			n, err := strconv.ParseInt(s, 10, 32)
			return int32(n), err
		}}, nil
	case TInt64:
		return &typedBuilder[int64]{parse: func(s string) (int64, error) {
			return strconv.ParseInt(s, 10, 64)
		}}, nil
	case TUint8:
		return &typedBuilder[uint8]{parse: func(s string) (uint8, error) {
			n, err := strconv.ParseUint(s, 10, 8)
			return uint8(n), err
		}}, nil
	case TUint16:
		return &typedBuilder[uint16]{parse: func(s string) (uint16, error) {
			n, err := strconv.ParseUint(s, 10, 16)
			return uint16(n), err
		}}, nil
	case TUint32:
		return &typedBuilder[uint32]{parse: func(s string) (uint32, error) {
			n, err := strconv.ParseUint(s, 10, 32)
			return uint32(n), err
		}}, nil
	case TUint64:
		return &typedBuilder[uint64]{parse: func(s string) (uint64, error) {
			return strconv.ParseUint(s, 10, 64)
		}}, nil
	case TFloat32:
		return &typedBuilder[float32]{parse: func(s string) (float32, error) {
			f, err := strconv.ParseFloat(s, 32)
			return float32(f), err
		}}, nil
	case TFloat64:
		return &typedBuilder[float64]{parse: func(s string) (float64, error) {
			return strconv.ParseFloat(s, 64)
		}}, nil
	default:
		return nil, fmt.Errorf("bxdm: type code %v is not an array item type", code)
	}
}

// Items extracts the concrete slice from array data of a known type; ok is
// false when the dynamic type differs.
func Items[T xbs.Primitive](d ArrayData) ([]T, bool) {
	a, ok := d.(Array[T])
	if !ok {
		return nil, false
	}
	return a.Items, true
}
