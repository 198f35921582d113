package netcdf

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleFile() *File {
	n := 100
	idx := make([]int32, n)
	vals := make([]float64, n)
	for i := range idx {
		idx[i] = int32(i)
		vals[i] = float64(i) * 1.25
	}
	return &File{
		Dims: []Dimension{{Name: "model", Length: n}},
		Attrs: []Attribute{
			StringAttr("title", "LEAD-like atmospheric sample"),
			{Name: "version", Type: Double, Values: []float64{1.5}},
			{Name: "levels", Type: Int, Values: []int32{1, 2, 3}},
		},
		Vars: []Variable{
			{
				Name: "index", Type: Int, Dims: []string{"model"},
				Attrs: []Attribute{StringAttr("units", "count")},
				Data:  idx,
			},
			{
				Name: "values", Type: Double, Dims: []string{"model"},
				Attrs: []Attribute{StringAttr("units", "hPa")},
				Data:  vals,
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Errorf("version = %d", back.Version)
	}
	if !reflect.DeepEqual(f.Dims, back.Dims) {
		t.Errorf("dims = %+v", back.Dims)
	}
	if !reflect.DeepEqual(f.Attrs, back.Attrs) {
		t.Errorf("attrs = %+v", back.Attrs)
	}
	if len(back.Vars) != 2 {
		t.Fatalf("vars = %d", len(back.Vars))
	}
	for i := range f.Vars {
		if f.Vars[i].Name != back.Vars[i].Name || f.Vars[i].Type != back.Vars[i].Type {
			t.Errorf("var %d meta mismatch", i)
		}
		if !reflect.DeepEqual(f.Vars[i].Data, back.Vars[i].Data) {
			t.Errorf("var %s data mismatch", f.Vars[i].Name)
		}
		if !reflect.DeepEqual(f.Vars[i].Attrs, back.Vars[i].Attrs) {
			t.Errorf("var %s attrs mismatch", f.Vars[i].Name)
		}
	}
}

func TestMagicAndEndianness(t *testing.T) {
	data, err := sampleFile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{'C', 'D', 'F', 1}) {
		t.Errorf("magic = %x", data[:4])
	}
}

func TestVersion2Offsets(t *testing.T) {
	f := sampleFile()
	f.Version = 2
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if data[3] != 2 {
		t.Errorf("version byte = %d", data[3])
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := back.Var("values")
	if !reflect.DeepEqual(v.Data, f.Vars[1].Data) {
		t.Error("v2 data mismatch")
	}
}

func TestAllTypes(t *testing.T) {
	f := &File{
		Dims: []Dimension{{Name: "n", Length: 3}},
		Vars: []Variable{
			{Name: "b", Type: Byte, Dims: []string{"n"}, Data: []int8{-1, 0, 1}},
			{Name: "c", Type: Char, Dims: []string{"n"}, Data: "abc"},
			{Name: "s", Type: Short, Dims: []string{"n"}, Data: []int16{-300, 0, 300}},
			{Name: "i", Type: Int, Dims: []string{"n"}, Data: []int32{-70000, 0, 70000}},
			{Name: "f", Type: Float, Dims: []string{"n"}, Data: []float32{-1.5, 0, 1.5}},
			{Name: "d", Type: Double, Dims: []string{"n"}, Data: []float64{math.Pi, -0.0, 2e300}},
		},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Vars {
		if !reflect.DeepEqual(f.Vars[i].Data, back.Vars[i].Data) {
			t.Errorf("%s: %v != %v", f.Vars[i].Name, back.Vars[i].Data, f.Vars[i].Data)
		}
	}
}

func TestRecordVariables(t *testing.T) {
	// 4 records over an unlimited dimension, plus one fixed variable.
	f := &File{
		Dims: []Dimension{
			{Name: "time", Length: 0}, // unlimited
			{Name: "x", Length: 2},
		},
		Vars: []Variable{
			{Name: "fixed", Type: Int, Dims: []string{"x"}, Data: []int32{7, 8}},
			{Name: "temp", Type: Double, Dims: []string{"time", "x"},
				Data: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: "count", Type: Short, Dims: []string{"time"},
				Data: []int16{10, 20, 30, 40}},
		},
	}
	recs, err := f.NumRecs()
	if err != nil || recs != 4 {
		t.Fatalf("NumRecs = %d, %v", recs, err)
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Vars {
		if !reflect.DeepEqual(f.Vars[i].Data, back.Vars[i].Data) {
			t.Errorf("%s: %v != %v", f.Vars[i].Name, back.Vars[i].Data, f.Vars[i].Data)
		}
	}
}

func TestInconsistentRecordCounts(t *testing.T) {
	f := &File{
		Dims: []Dimension{{Name: "t", Length: 0}},
		Vars: []Variable{
			{Name: "a", Type: Int, Dims: []string{"t"}, Data: []int32{1, 2}},
			{Name: "b", Type: Int, Dims: []string{"t"}, Data: []int32{1, 2, 3}},
		},
	}
	if _, err := f.Marshal(); err == nil {
		t.Error("inconsistent record counts accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []*File{
		// Data length mismatch.
		{Dims: []Dimension{{Name: "n", Length: 5}},
			Vars: []Variable{{Name: "v", Type: Int, Dims: []string{"n"}, Data: []int32{1}}}},
		// Unknown dimension.
		{Vars: []Variable{{Name: "v", Type: Int, Dims: []string{"ghost"}, Data: []int32{1}}}},
		// Type/data mismatch.
		{Dims: []Dimension{{Name: "n", Length: 1}},
			Vars: []Variable{{Name: "v", Type: Double, Dims: []string{"n"}, Data: []int32{1}}}},
		// Record dimension not outermost.
		{Dims: []Dimension{{Name: "t", Length: 0}, {Name: "x", Length: 1}},
			Vars: []Variable{{Name: "v", Type: Int, Dims: []string{"x", "t"}, Data: []int32{1}}}},
	}
	for i, f := range cases {
		if _, err := f.Marshal(); err == nil {
			t.Errorf("case %d: invalid file marshaled successfully", i)
		}
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	good, err := sampleFile().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte("notcdf")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Parse(good[:10]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Parse(good[:len(good)-8]); err == nil {
		t.Error("truncated data accepted")
	}
	// Bit-flip resilience: no panics.
	for i := 0; i < len(good); i += 7 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic with byte %d flipped: %v", i, r)
				}
			}()
			_, _ = Parse(mut)
		}()
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sample.nc")
	f := sampleFile()
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := back.Var("values")
	if !ok || !reflect.DeepEqual(v.Data, f.Vars[1].Data) {
		t.Error("file round trip mismatch")
	}
	if _, ok := back.Dim("model"); !ok {
		t.Error("dimension lost")
	}
}

func TestEncodingOverheadMatchesTable1(t *testing.T) {
	// Table 1: netCDF overhead ≈ 2.2% at model size 1000.
	n := 1000
	idx := make([]int32, n)
	vals := make([]float64, n)
	f := &File{
		Dims: []Dimension{{Name: "model", Length: n}},
		Vars: []Variable{
			{Name: "index", Type: Int, Dims: []string{"model"}, Data: idx},
			{Name: "values", Type: Double, Dims: []string{"model"}, Data: vals},
		},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	native := n * 12
	overhead := float64(len(data)-native) / float64(native)
	if overhead < 0 || overhead > 0.05 {
		t.Errorf("netCDF overhead = %.2f%%, want small and positive", overhead*100)
	}
}

func TestPropertyRoundTripDoubles(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0
			}
		}
		nc := &File{
			Dims: []Dimension{{Name: "n", Length: len(vals)}},
			Vars: []Variable{{Name: "v", Type: Double, Dims: []string{"n"}, Data: vals}},
		}
		data, err := nc.Marshal()
		if err != nil {
			return false
		}
		back, err := Parse(data)
		if err != nil {
			return false
		}
		got := back.Vars[0].Data.([]float64)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScalarVariable(t *testing.T) {
	// Zero-dimensional variable: one value.
	f := &File{
		Vars: []Variable{{Name: "answer", Type: Int, Data: []int32{42}}},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Vars[0].Data.([]int32); len(got) != 1 || got[0] != 42 {
		t.Errorf("scalar = %v", got)
	}
}

func BenchmarkMarshal1000Pairs(b *testing.B) {
	n := 1000
	f := &File{
		Dims: []Dimension{{Name: "model", Length: n}},
		Vars: []Variable{
			{Name: "index", Type: Int, Dims: []string{"model"}, Data: make([]int32, n)},
			{Name: "values", Type: Double, Dims: []string{"model"}, Data: make([]float64, n)},
		},
	}
	b.ReportAllocs()
	b.SetBytes(12000)
	for i := 0; i < b.N; i++ {
		if _, err := f.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}
