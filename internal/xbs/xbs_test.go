package xbs

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func newWriter(out io.Writer, order ByteOrder, base int64) *Writer {
	w := new(Writer)
	w.Reset(out, order, base)
	return w
}

func newReader(in io.Reader, order ByteOrder, base int64) *Reader {
	r := new(Reader)
	r.Reset(in, order, base)
	return r
}

// readOne reads back a single aligned element, the scalar case of an array.
func readOne[T Primitive](t *testing.T, r *Reader) T {
	t.Helper()
	v, err := ReadArrayGrow[T](r, 1)
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	return v[0]
}

// A scalar is the one-element array: every width survives both orders,
// interleaved so each value lands behind a different alignment pad.
func TestScalarRoundTripBothOrders(t *testing.T) {
	for _, order := range []ByteOrder{LittleEndian, BigEndian} {
		var buf bytes.Buffer
		w := newWriter(&buf, order, 0)
		for _, err := range []error{
			WriteArray(w, []uint8{0xab}),
			WriteArray(w, []int16{-12345}),
			WriteArray(w, []uint32{0xdeadbeef}),
			WriteArray(w, []int64{-1 << 40}),
			WriteArray(w, []float32{3.25}),
			WriteArray(w, []float64{-2.5e300}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}

		r := newReader(bytes.NewReader(buf.Bytes()), order, 0)
		if v := readOne[uint8](t, r); v != 0xab {
			t.Fatalf("%v: uint8 = %v", order, v)
		}
		if v := readOne[int16](t, r); v != -12345 {
			t.Fatalf("%v: int16 = %v", order, v)
		}
		if v := readOne[uint32](t, r); v != 0xdeadbeef {
			t.Fatalf("%v: uint32 = %v", order, v)
		}
		if v := readOne[int64](t, r); v != -1<<40 {
			t.Fatalf("%v: int64 = %v", order, v)
		}
		if v := readOne[float32](t, r); v != 3.25 {
			t.Fatalf("%v: float32 = %v", order, v)
		}
		if v := readOne[float64](t, r); v != -2.5e300 {
			t.Fatalf("%v: float64 = %v", order, v)
		}
	}
}

// The in-memory pair (AppendArray/DecodeArray, the template path) reads
// back what it wrote for mixed element types packed back to back.
func TestGenericValueRoundTrip(t *testing.T) {
	buf := AppendArray(nil, []int32{-7}, LittleEndian)
	buf = AppendArray(buf, []float64{6.5}, LittleEndian)
	buf = AppendArray(buf, []uint16{99}, LittleEndian)
	if len(buf) != 4+8+2 {
		t.Fatalf("packed %d bytes, want 14 (no alignment on the append path)", len(buf))
	}
	if v, err := DecodeArray[int32](buf, 1, LittleEndian); err != nil || v[0] != -7 {
		t.Fatalf("int32 = %v, %v", v, err)
	}
	if v, err := DecodeArray[float64](buf[4:], 1, LittleEndian); err != nil || v[0] != 6.5 {
		t.Fatalf("float64 = %v, %v", v, err)
	}
	if v, err := DecodeArray[uint16](buf[12:], 1, LittleEndian); err != nil || v[0] != 99 {
		t.Fatalf("uint16 = %v, %v", v, err)
	}
	if _, err := DecodeArray[uint16](buf[13:], 1, LittleEndian); err == nil {
		t.Fatal("DecodeArray read past the buffer")
	}
}

// A NaN's payload bits survive both the stream and the in-memory paths:
// the codec moves bits, it never converts values.
func TestNaNPreserved(t *testing.T) {
	const bits = 0x7ff8000000000001
	nan := math.Float64frombits(bits)
	var buf bytes.Buffer
	if err := WriteArray(newWriter(&buf, LittleEndian, 0), []float64{nan}); err != nil {
		t.Fatal(err)
	}
	v := readOne[float64](t, newReader(bytes.NewReader(buf.Bytes()), LittleEndian, 0))
	if math.Float64bits(v) != bits {
		t.Fatalf("stream: NaN payload not preserved: %x", math.Float64bits(v))
	}
	mem, err := DecodeArray[float64](AppendArray(nil, []float64{nan}, BigEndian), 1, BigEndian)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(mem[0]) != bits {
		t.Fatalf("in-memory: NaN payload not preserved: %x", math.Float64bits(mem[0]))
	}
}

func TestAlignment(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, LittleEndian, 0)
	if err := WriteArray(w, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	// Offset is 1; a uint64 must be preceded by 7 padding bytes.
	if err := WriteArray(w, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	if got := buf.Len(); got != 16 {
		t.Fatalf("stream length = %d, want 16 (1 data + 7 pad + 8 data)", got)
	}
	for i := 1; i < 8; i++ {
		if buf.Bytes()[i] != 0 {
			t.Fatalf("padding byte %d = %#x, want 0", i, buf.Bytes()[i])
		}
	}
	if w.off != 16 {
		t.Fatalf("Offset = %d, want 16", w.off)
	}
}

func TestAlignmentWithBase(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, LittleEndian, 6) // pretend 6 container bytes precede us
	if err := WriteArray(w, []uint32{7}); err != nil {
		t.Fatal(err)
	}
	// 6 → pad 2 → 8..12 holds the value.
	if buf.Len() != 6 {
		t.Fatalf("bytes written = %d, want 6 (2 pad + 4 data)", buf.Len())
	}
	r := newReader(bytes.NewReader(buf.Bytes()), LittleEndian, 6)
	if v, err := ReadArrayGrow[uint32](r, 1); err != nil || v[0] != 7 {
		t.Fatalf("read back = %v, %v", v, err)
	}
}

func TestBadAlignmentDetected(t *testing.T) {
	// One data byte, then garbage where padding should be.
	data := []byte{0x01, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}
	r := newReader(bytes.NewReader(data), LittleEndian, 0)
	if _, err := ReadArrayGrow[uint8](r, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArrayGrow[uint64](r, 1); err != ErrBadAlignment {
		t.Fatalf("err = %v, want ErrBadAlignment", err)
	}
}

func TestWireFormatEndianness(t *testing.T) {
	var le, be bytes.Buffer
	if err := WriteArray(newWriter(&le, LittleEndian, 0), []uint32{0x01020304}); err != nil {
		t.Fatal(err)
	}
	if err := WriteArray(newWriter(&be, BigEndian, 0), []uint32{0x01020304}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(le.Bytes(), []byte{4, 3, 2, 1}) {
		t.Errorf("LE bytes = %x", le.Bytes())
	}
	if !bytes.Equal(be.Bytes(), []byte{1, 2, 3, 4}) {
		t.Errorf("BE bytes = %x", be.Bytes())
	}
}

func roundTripArray[T Primitive](t *testing.T, in []T, order ByteOrder) {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf, order, 0)
	if err := WriteArray(w, []uint8{9}); err != nil { // force misalignment first
		t.Fatal(err)
	}
	if err := WriteArray(w, in); err != nil {
		t.Fatal(err)
	}
	r := newReader(bytes.NewReader(buf.Bytes()), order, 0)
	if _, err := ReadArrayGrow[uint8](r, 1); err != nil {
		t.Fatal(err)
	}
	out, err := ReadArrayGrow[T](r, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("order %v: elem %d = %v, want %v", order, i, out[i], in[i])
		}
	}
}

func TestArrayRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{LittleEndian, BigEndian} {
		roundTripArray(t, []int8{-1, 0, 127, -128}, order)
		roundTripArray(t, []uint8{0, 255, 7}, order)
		roundTripArray(t, []int16{-32768, 32767, 0}, order)
		roundTripArray(t, []uint16{0, 65535}, order)
		roundTripArray(t, []int32{-1 << 31, 1<<31 - 1, 42}, order)
		roundTripArray(t, []uint32{0, 1 << 31, 0xffffffff}, order)
		roundTripArray(t, []int64{-1 << 62, 1 << 62}, order)
		roundTripArray(t, []uint64{0, 1 << 63}, order)
		roundTripArray(t, []float32{0, -0, 1.5, float32(math.Inf(1))}, order)
		roundTripArray(t, []float64{math.Pi, -math.MaxFloat64, 1e-300}, order)
	}
}

func TestArrayLargerThanChunk(t *testing.T) {
	in := make([]float64, 10000)
	for i := range in {
		in[i] = float64(i) * 1.5
	}
	roundTripArray(t, in, LittleEndian)
}

func TestEmptyArray(t *testing.T) {
	roundTripArray(t, []float64{}, LittleEndian)
	roundTripArray(t, []int32{}, BigEndian)
}

func TestArrayPropertyFloat64(t *testing.T) {
	f := func(in []float64) bool {
		var buf bytes.Buffer
		w := newWriter(&buf, BigEndian, 0)
		if err := WriteArray(w, in); err != nil {
			return false
		}
		r := newReader(bytes.NewReader(buf.Bytes()), BigEndian, 0)
		out, err := ReadArrayGrow[float64](r, len(in))
		if err != nil {
			return false
		}
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArrayPropertyInt32(t *testing.T) {
	f := func(in []int32) bool {
		var buf bytes.Buffer
		w := newWriter(&buf, LittleEndian, 0)
		if err := WriteArray(w, in); err != nil {
			return false
		}
		r := newReader(bytes.NewReader(buf.Bytes()), LittleEndian, 0)
		out, err := ReadArrayGrow[int32](r, len(in))
		if err != nil {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf[int8]() != 1 || SizeOf[uint8]() != 1 {
		t.Error("1-byte sizes wrong")
	}
	if SizeOf[int16]() != 2 || SizeOf[uint16]() != 2 {
		t.Error("2-byte sizes wrong")
	}
	if SizeOf[int32]() != 4 || SizeOf[uint32]() != 4 || SizeOf[float32]() != 4 {
		t.Error("4-byte sizes wrong")
	}
	if SizeOf[int64]() != 8 || SizeOf[uint64]() != 8 || SizeOf[float64]() != 8 {
		t.Error("8-byte sizes wrong")
	}
}

func BenchmarkWriteFloat64Array(b *testing.B) {
	a := make([]float64, 4096)
	for i := range a {
		a[i] = float64(i)
	}
	b.SetBytes(int64(len(a) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := newWriter(&buf, LittleEndian, 0)
		if err := WriteArray(w, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadFloat64Array(b *testing.B) {
	a := make([]float64, 4096)
	var buf bytes.Buffer
	if err := WriteArray(newWriter(&buf, LittleEndian, 0), a); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(a) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := newReader(bytes.NewReader(buf.Bytes()), LittleEndian, 0)
		if _, err := ReadArrayGrow[float64](r, len(a)); err != nil {
			b.Fatal(err)
		}
	}
}
