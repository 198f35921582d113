package xbs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// failWriter errors after n bytes, exercising every writer error path.
type failWriter struct {
	n   int
	err error
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

func TestWriterErrorPropagation(t *testing.T) {
	sentinel := errors.New("disk full")
	ops := []func(w *Writer) error{
		func(w *Writer) error { return WriteArray(w, []uint8{1}) },
		func(w *Writer) error { return WriteArray(w, []uint16{1}) },
		func(w *Writer) error { return WriteArray(w, []float32{1}) },
		func(w *Writer) error { return WriteArray(w, []float64{1, 2, 3}) },
	}
	for i, op := range ops {
		w := newWriter(&failWriter{n: 0, err: sentinel}, LittleEndian, 0)
		if err := op(w); !errors.Is(err, sentinel) {
			t.Errorf("op %d: err = %v, want sentinel", i, err)
		}
	}
}

func TestWriterErrorMidAlignment(t *testing.T) {
	sentinel := errors.New("gone")
	w := newWriter(&failWriter{n: 1, err: sentinel}, LittleEndian, 0)
	if err := WriteArray(w, []uint8{1}); err != nil {
		t.Fatal(err)
	}
	// Alignment padding write fails.
	if err := WriteArray(w, []uint64{2}); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestReaderTruncation(t *testing.T) {
	ops := []func(r *Reader) error{
		func(r *Reader) error { _, err := ReadArrayGrow[uint8](r, 1); return err },
		func(r *Reader) error { _, err := ReadArrayGrow[uint16](r, 1); return err },
		func(r *Reader) error { _, err := ReadArrayGrow[float32](r, 1); return err },
		func(r *Reader) error { _, err := ReadArrayGrow[float64](r, 4); return err },
	}
	for i, op := range ops {
		r := newReader(bytes.NewReader(nil), BigEndian, 0)
		err := op(r)
		if err == nil {
			t.Errorf("op %d: no error on empty input", i)
		}
	}
	// Partial input → unexpected EOF, not silence.
	r := newReader(bytes.NewReader([]byte{1, 2, 3}), LittleEndian, 0)
	if _, err := ReadArrayGrow[uint64](r, 1); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Errorf("partial read err = %v", err)
	}
}

// BXSA records the byte order per frame (paper §4.1), so one reader
// switches order mid-stream by re-aiming at the same input with its
// current offset as the new base.
func TestReaderSetOrderMidStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArray(newWriter(&buf, LittleEndian, 0), []uint32{0x01020304}); err != nil {
		t.Fatal(err)
	}
	if err := WriteArray(newWriter(&buf, BigEndian, int64(buf.Len())), []uint32{0x01020304}); err != nil {
		t.Fatal(err)
	}
	in := bytes.NewReader(buf.Bytes())
	r := newReader(in, LittleEndian, 0)
	v1, err := ReadArrayGrow[uint32](r, 1)
	if err != nil || v1[0] != 0x01020304 {
		t.Fatalf("LE read = %x, %v", v1, err)
	}
	r.Reset(in, BigEndian, r.Offset())
	v2, err := ReadArrayGrow[uint32](r, 1)
	if err != nil || v2[0] != 0x01020304 {
		t.Fatalf("BE read after Reset = %x, %v", v2, err)
	}
	if r.Offset() != 8 {
		t.Errorf("Offset = %d, want 8", r.Offset())
	}
}

func TestOffsetsTracked(t *testing.T) {
	var buf bytes.Buffer
	w := newWriter(&buf, LittleEndian, 3)
	if w.off != 3 {
		t.Error("base offset ignored")
	}
	WriteArray(w, []uint8{1}) // off 4
	WriteArray(w, []uint32{2})
	if w.off != 12 { // 4 → pad 0 (4%4==0) → 8... wait: off 4 is aligned → +4 = 8
		// Recompute: base 3 +1 byte = 4; aligned for u32; +4 = 8.
		if w.off != 8 {
			t.Errorf("writer offset = %d", w.off)
		}
	}
	r := newReader(bytes.NewReader(buf.Bytes()), LittleEndian, 3)
	ReadArrayGrow[uint8](r, 1)
	ReadArrayGrow[uint32](r, 1)
	if r.off != w.off {
		t.Errorf("reader offset %d != writer offset %d", r.off, w.off)
	}
}

func TestOrderString(t *testing.T) {
	if LittleEndian.String() != "little-endian" || BigEndian.String() != "big-endian" {
		t.Error("ByteOrder.String wrong")
	}
}
