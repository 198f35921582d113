package bxdm

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"bxsoap/internal/xbs"
)

func TestArrayTypeCodes(t *testing.T) {
	if ArrayTypeCode[int8]() != TInt8 || ArrayTypeCode[uint64]() != TUint64 ||
		ArrayTypeCode[float32]() != TFloat32 || ArrayTypeCode[float64]() != TFloat64 {
		t.Error("ArrayTypeCode mapping wrong")
	}
}

func TestArrayDataBasics(t *testing.T) {
	a := Array[float64]{Items: []float64{1.5, -2, 3}}
	if a.Type() != TFloat64 || a.Len() != 3 || a.ByteLen() != 24 {
		t.Errorf("meta = %v/%d/%d", a.Type(), a.Len(), a.ByteLen())
	}
	if v := a.Value(1); v.Type() != TFloat64 || v.Float64() != -2 {
		t.Errorf("Value(1) = %v", v)
	}
	if got := string(a.AppendLexical(nil, 0)); got != "1.5" {
		t.Errorf("AppendLexical = %q", got)
	}
	if got := string(a.AppendAllLexical(nil, ",")); got != "1.5,-2,3" {
		t.Errorf("AppendAllLexical = %q", got)
	}
}

func TestArrayXBSRoundTrip(t *testing.T) {
	check := func(d ArrayData) {
		t.Helper()
		var buf bytes.Buffer
		var w xbs.Writer
		w.Reset(&buf, xbs.LittleEndian, 0)
		if err := d.WriteXBS(&w); err != nil {
			t.Fatal(err)
		}
		var r xbs.Reader
		r.Reset(bytes.NewReader(buf.Bytes()), xbs.LittleEndian, 0)
		back, err := ReadArrayXBSGrow(&r, d.Type(), d.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !d.EqualData(back) {
			t.Fatalf("round trip mismatch for %v", d.Type())
		}
	}
	check(Array[int8]{Items: []int8{-1, 2, 3}})
	check(Array[int16]{Items: []int16{-1000, 1000}})
	check(Array[int32]{Items: []int32{1 << 30}})
	check(Array[int64]{Items: []int64{-1 << 60, 1}})
	check(Array[uint8]{Items: []uint8{0, 255}})
	check(Array[uint16]{Items: []uint16{65535}})
	check(Array[uint32]{Items: []uint32{1, 2, 3, 4, 5}})
	check(Array[uint64]{Items: []uint64{math.MaxUint64}})
	check(Array[float32]{Items: []float32{1.5, -0.25}})
	check(Array[float64]{Items: []float64{math.Pi, math.Inf(-1)}})
}

func TestReadArrayXBSInvalidCode(t *testing.T) {
	r := new(xbs.Reader)
	r.Reset(bytes.NewReader(nil), xbs.LittleEndian, 0)
	if _, err := ReadArrayXBSGrow(r, TString, 0); err == nil {
		t.Error("TString accepted as array item type")
	}
	if _, err := ReadArrayXBSGrow(r, TBool, 0); err == nil {
		t.Error("TBool accepted as array item type")
	}
}

func TestEqualDataTypeMismatch(t *testing.T) {
	a := Array[int32]{Items: []int32{1}}
	b := Array[int64]{Items: []int64{1}}
	if a.EqualData(b) {
		t.Error("arrays of different item type reported equal")
	}
	c := Array[int32]{Items: []int32{1, 2}}
	if a.EqualData(c) {
		t.Error("arrays of different length reported equal")
	}
}

func TestEqualDataNaN(t *testing.T) {
	nan := math.NaN()
	a := Array[float64]{Items: []float64{nan}}
	b := Array[float64]{Items: []float64{nan}}
	if !a.EqualData(b) {
		t.Error("identical NaN arrays should be EqualData (bitwise compare)")
	}
}

func TestArrayBuilderAllTypes(t *testing.T) {
	for _, code := range []TypeCode{TInt8, TInt16, TInt32, TInt64, TUint8, TUint16, TUint32, TUint64, TFloat32, TFloat64} {
		b, err := NewArrayBuilder(code)
		if err != nil {
			t.Fatalf("NewArrayBuilder(%v): %v", code, err)
		}
		if err := b.AppendLexical("1"); err != nil {
			t.Fatalf("%v: append: %v", code, err)
		}
		if err := b.AppendLexical("2"); err != nil {
			t.Fatalf("%v: append: %v", code, err)
		}
		d := b.Data()
		if d.Type() != code || d.Len() != 2 {
			t.Errorf("%v: built %v/%d", code, d.Type(), d.Len())
		}
		if d.Value(1).Int64() != 2 {
			t.Errorf("%v: item 1 = %v", code, d.Value(1))
		}
	}
}

func TestArrayBuilderErrors(t *testing.T) {
	if _, err := NewArrayBuilder(TString); err == nil {
		t.Error("TString builder should fail")
	}
	b, _ := NewArrayBuilder(TInt16)
	if err := b.AppendLexical("99999"); err == nil {
		t.Error("int16 overflow not caught")
	}
	if err := b.AppendLexical("zzz"); err == nil {
		t.Error("garbage not caught")
	}
}

func TestLexicalRoundTripPropertyArrays(t *testing.T) {
	f := func(in []float64) bool {
		for i, v := range in {
			if math.IsNaN(v) {
				in[i] = 0
			}
		}
		a := Array[float64]{Items: in}
		b, _ := NewArrayBuilder(TFloat64)
		for i := 0; i < a.Len(); i++ {
			if err := b.AppendLexical(string(a.AppendLexical(nil, i))); err != nil {
				return false
			}
		}
		return a.EqualData(b.Data())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestItemsExtraction(t *testing.T) {
	d := ArrayData(Array[int32]{Items: []int32{5, 6}})
	if got, ok := Items[int32](d); !ok || len(got) != 2 || got[0] != 5 {
		t.Errorf("Items[int32] = %v, %v", got, ok)
	}
	if _, ok := Items[float64](d); ok {
		t.Error("Items with wrong type should report !ok")
	}
}
