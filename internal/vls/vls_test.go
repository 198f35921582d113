package vls

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripKnownValues(t *testing.T) {
	cases := []struct {
		v    uint64
		want []byte
	}{
		{0, []byte{0x00}},
		{1, []byte{0x01}},
		{127, []byte{0x7f}},
		{128, []byte{0x80, 0x01}},
		{300, []byte{0xac, 0x02}},
		{16383, []byte{0xff, 0x7f}},
		{16384, []byte{0x80, 0x80, 0x01}},
		{math.MaxUint64, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
	}
	for _, c := range cases {
		got := AppendUint(nil, c.v)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendUint(%d) = %x, want %x", c.v, got, c.want)
		}
		if n := EncodedLen(c.v); n != len(c.want) {
			t.Errorf("EncodedLen(%d) = %d, want %d", c.v, n, len(c.want))
		}
		back, n, err := Uint(got)
		if err != nil || back != c.v || n != len(c.want) {
			t.Errorf("Uint(%x) = (%d,%d,%v), want (%d,%d,nil)", got, back, n, err, c.v, len(c.want))
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		enc := AppendUint(nil, v)
		back, n, err := Uint(enc)
		return err == nil && back == v && n == len(enc) && n == EncodedLen(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeWithTrailingData(t *testing.T) {
	enc := AppendUint(nil, 300)
	enc = append(enc, 0xde, 0xad)
	v, n, err := Uint(enc)
	if err != nil || v != 300 || n != 2 {
		t.Fatalf("Uint = (%d,%d,%v), want (300,2,nil)", v, n, err)
	}
}

func TestTruncated(t *testing.T) {
	if _, _, err := Uint([]byte{0x80}); err != ErrTruncated {
		t.Errorf("truncated buf: err = %v, want ErrTruncated", err)
	}
	if _, _, err := Uint(nil); err != ErrTruncated {
		t.Errorf("empty buf: err = %v, want ErrTruncated", err)
	}
}

func TestOverflow(t *testing.T) {
	// 11 continuation bytes.
	buf := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uint(buf); err != ErrOverflow {
		t.Errorf("11-byte varint: err = %v, want ErrOverflow", err)
	}
	// 10th byte contributes more than the top bit.
	buf = append(bytes.Repeat([]byte{0xff}, 9), 0x02)
	if _, _, err := Uint(buf); err != ErrOverflow {
		t.Errorf("overflowing 10th byte: err = %v, want ErrOverflow", err)
	}
}

func TestNonCanonical(t *testing.T) {
	// 0x80 0x00 is a redundant encoding of zero.
	if _, _, err := Uint([]byte{0x80, 0x00}); err != ErrNonCanonical {
		t.Errorf("err = %v, want ErrNonCanonical", err)
	}
}

func TestWriteReadUint(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 1 << 20, 1 << 40, math.MaxUint64}
	var buf bytes.Buffer
	// A 16-byte buffer makes some values straddle a flush, so the encoding
	// outgrows the writer's free space and still comes out whole.
	w := bufio.NewWriterSize(&buf, 16)
	for _, v := range values {
		n, err := WriteUint(w, v)
		if err != nil || n != EncodedLen(v) {
			t.Fatalf("WriteUint(%d) = (%d,%v)", v, n, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	for _, v := range values {
		got, err := ReadUint(r)
		if err != nil || got != v {
			t.Fatalf("ReadUint = (%d,%v), want %d", got, err, v)
		}
	}
	if _, err := ReadUint(r); err != io.EOF {
		t.Fatalf("ReadUint at end = %v, want io.EOF", err)
	}
}

func TestReadUintTruncated(t *testing.T) {
	r := bufio.NewReader(bytes.NewReader([]byte{0x80}))
	if _, err := ReadUint(r); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func BenchmarkAppendUint(b *testing.B) {
	var scratch [MaxLen]byte
	for i := 0; i < b.N; i++ {
		AppendUint(scratch[:0], uint64(i)*2654435761)
	}
}

func BenchmarkUint(b *testing.B) {
	enc := AppendUint(nil, 123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Uint(enc); err != nil {
			b.Fatal(err)
		}
	}
}
