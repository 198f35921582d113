// Package netcdf implements the netCDF "classic" file format (CDF-1, plus
// the CDF-2 64-bit-offset variant) from scratch: header with dimension,
// attribute, and variable lists, fixed-size and record variables, and the
// big-endian, 4-byte-aligned data section.
//
// In the paper's evaluation (§6) netCDF is the serialization format of the
// conventional "separated" scheme: the scientific payload is written to a
// netCDF file, shipped over an HTTP or GridFTP data channel, and re-read on
// the far side. The paper stresses that "the netCDF library does not
// support reading the data directly from memory" — this package mirrors
// that constraint in the harness by always staging through a real file
// (WriteFile/ReadFile), which is exactly the disk-I/O cost the experiments
// attribute to the separated scheme.
package netcdf

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Type enumerates the netCDF external data types.
type Type int32

const (
	Byte   Type = 1 // NC_BYTE, []int8
	Char   Type = 2 // NC_CHAR, string
	Short  Type = 3 // NC_SHORT, []int16
	Int    Type = 4 // NC_INT, []int32
	Float  Type = 5 // NC_FLOAT, []float32
	Double Type = 6 // NC_DOUBLE, []float64
)

// Size returns the external size in bytes of one value.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	default:
		return 0
	}
}

func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	default:
		return fmt.Sprintf("type(%d)", int32(t))
	}
}

// Header list tags.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

// Dimension is a named axis. Length 0 marks the unlimited (record)
// dimension; at most one is allowed.
type Dimension struct {
	Name   string
	Length int
}

// Attribute is a typed name-value pair on a variable or the whole file.
// Values holds string (Char) or []int8/[]int16/[]int32/[]float32/[]float64.
type Attribute struct {
	Name   string
	Type   Type
	Values any
}

// StringAttr builds a Char attribute.
func StringAttr(name, value string) Attribute {
	return Attribute{Name: name, Type: Char, Values: value}
}

// Variable is one named array over dimensions. Data holds the full values
// in row-major order: []int8, string, []int16, []int32, []float32 or
// []float64 matching Type. A variable whose first dimension is the record
// dimension is a record variable.
type Variable struct {
	Name  string
	Type  Type
	Dims  []string // dimension names, outermost first
	Attrs []Attribute
	Data  any
}

// File is an in-memory netCDF dataset.
type File struct {
	// Version is 1 (classic, 32-bit offsets) or 2 (64-bit offsets).
	Version int
	Dims    []Dimension
	Attrs   []Attribute
	Vars    []Variable
}

// Dim returns the named dimension.
func (f *File) Dim(name string) (Dimension, bool) {
	for _, d := range f.Dims {
		if d.Name == name {
			return d, true
		}
	}
	return Dimension{}, false
}

// Var returns the named variable.
func (f *File) Var(name string) (*Variable, bool) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], true
		}
	}
	return nil, false
}

// NumRecs computes the record count from the record variables' data.
func (f *File) NumRecs() (int, error) {
	recs := 0
	for i := range f.Vars {
		v := &f.Vars[i]
		isRec, perRec, err := f.varShape(v)
		if err != nil {
			return 0, err
		}
		if !isRec {
			continue
		}
		n := dataLen(v.Data)
		if perRec == 0 {
			return 0, fmt.Errorf("netcdf: record variable %s has zero-size record", v.Name)
		}
		if n%perRec != 0 {
			return 0, fmt.Errorf("netcdf: variable %s data length %d not a multiple of record size %d", v.Name, n, perRec)
		}
		r := n / perRec
		if recs != 0 && r != recs {
			return 0, fmt.Errorf("netcdf: inconsistent record counts (%d vs %d)", recs, r)
		}
		recs = r
	}
	return recs, nil
}

// varShape reports whether v is a record variable and how many values one
// record (or the whole variable, if fixed) holds.
func (f *File) varShape(v *Variable) (isRec bool, count int, err error) {
	count = 1
	for i, dn := range v.Dims {
		d, ok := f.Dim(dn)
		if !ok {
			return false, 0, fmt.Errorf("netcdf: variable %s references unknown dimension %q", v.Name, dn)
		}
		if d.Length == 0 {
			if i != 0 {
				return false, 0, fmt.Errorf("netcdf: variable %s: record dimension must be outermost", v.Name)
			}
			isRec = true
			continue
		}
		count *= d.Length
	}
	return isRec, count, nil
}

func dataLen(data any) int {
	switch d := data.(type) {
	case []int8:
		return len(d)
	case string:
		return len(d)
	case []int16:
		return len(d)
	case []int32:
		return len(d)
	case []float32:
		return len(d)
	case []float64:
		return len(d)
	case nil:
		return 0
	default:
		return -1
	}
}

func pad4(n int) int { return (n + 3) &^ 3 }

// headerSizes computes the byte size of the header and per-variable data
// layout. Returns header length, per-variable vsize (padded), and begins.
func (f *File) layout() (hdr int, vsizes, begins []int64, recSize int64, err error) {
	offsetWidth := 4
	if f.Version == 2 {
		offsetWidth = 8
	}
	hdr = 4 + 4 // magic + numrecs
	hdr += listHeaderSize()
	for _, d := range f.Dims {
		hdr += nameSize(d.Name) + 4
	}
	hdr += attrsSize(f.Attrs)
	hdr += listHeaderSize()
	vsizes = make([]int64, len(f.Vars))
	begins = make([]int64, len(f.Vars))
	for i := range f.Vars {
		v := &f.Vars[i]
		hdr += nameSize(v.Name) + 4 + 4*len(v.Dims) + attrsSize(v.Attrs) + 4 + 4 + offsetWidth
		_, count, e := f.varShape(v)
		if e != nil {
			return 0, nil, nil, 0, e
		}
		vsizes[i] = int64(pad4(count * v.Type.Size()))
	}
	// Fixed variables first, then record variables interleaved per record.
	off := int64(hdr)
	for i := range f.Vars {
		isRec, _, _ := f.varShape(&f.Vars[i])
		if isRec {
			continue
		}
		begins[i] = off
		off += vsizes[i]
	}
	recStart := off
	for i := range f.Vars {
		isRec, _, _ := f.varShape(&f.Vars[i])
		if !isRec {
			continue
		}
		begins[i] = recStart + recSize
		recSize += vsizes[i]
	}
	return hdr, vsizes, begins, recSize, nil
}

func listHeaderSize() int { return 8 } // tag + nelems (or ABSENT pair)

func nameSize(s string) int { return 4 + pad4(len(s)) }

func attrsSize(attrs []Attribute) int {
	n := listHeaderSize()
	for _, a := range attrs {
		n += nameSize(a.Name) + 4 + 4 + pad4(dataLen(a.Values)*a.Type.Size())
	}
	return n
}

// Write serializes the dataset. The writer never needs to seek: variables
// are laid out in declaration order.
func (f *File) Write(w io.Writer) error {
	if f.Version == 0 {
		f.Version = 1
	}
	if f.Version != 1 && f.Version != 2 {
		return fmt.Errorf("netcdf: unsupported version %d", f.Version)
	}
	_, vsizes, begins, _, err := f.layout()
	if err != nil {
		return err
	}
	numRecs, err := f.NumRecs()
	if err != nil {
		return err
	}
	for i := range f.Vars {
		v := &f.Vars[i]
		if dataLen(v.Data) < 0 {
			return fmt.Errorf("netcdf: variable %s has unsupported data type %T", v.Name, v.Data)
		}
		if !typeMatchesData(v.Type, v.Data) {
			return fmt.Errorf("netcdf: variable %s: data %T does not match type %v", v.Name, v.Data, v.Type)
		}
		isRec, count, err := f.varShape(v)
		if err != nil {
			return err
		}
		want := count
		if isRec {
			want = count * numRecs
		}
		if dataLen(v.Data) != want {
			return fmt.Errorf("netcdf: variable %s: data length %d, dimensions require %d", v.Name, dataLen(v.Data), want)
		}
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	e := &encoder{w: bw}
	e.bytes([]byte{'C', 'D', 'F', byte(f.Version)})
	e.i32(int32(numRecs))
	// Dimensions.
	e.list(tagDimension, len(f.Dims))
	for _, d := range f.Dims {
		e.name(d.Name)
		e.i32(int32(d.Length))
	}
	// Global attributes.
	e.attrs(f.Attrs)
	// Variables.
	e.list(tagVariable, len(f.Vars))
	for i := range f.Vars {
		v := &f.Vars[i]
		e.name(v.Name)
		e.i32(int32(len(v.Dims)))
		for _, dn := range v.Dims {
			e.i32(int32(f.dimIndex(dn)))
		}
		e.attrs(v.Attrs)
		e.i32(int32(v.Type))
		e.i32(int32(clampInt32(vsizes[i])))
		if f.Version == 2 {
			e.i64(begins[i])
		} else {
			e.i32(int32(begins[i]))
		}
	}
	// Fixed variable data in layout order.
	for i := range f.Vars {
		isRec, _, _ := f.varShape(&f.Vars[i])
		if isRec {
			continue
		}
		e.values(f.Vars[i].Data, 0, dataLen(f.Vars[i].Data), f.Vars[i].Type)
		e.padTo4()
	}
	// Record data: records interleaved across record variables.
	for r := 0; r < numRecs; r++ {
		for i := range f.Vars {
			v := &f.Vars[i]
			isRec, perRec, _ := f.varShape(v)
			if !isRec {
				continue
			}
			e.values(v.Data, r*perRec, perRec, v.Type)
			e.padTo4()
		}
	}
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

func clampInt32(v int64) int64 {
	if v > math.MaxInt32 {
		return math.MaxInt32 // spec: vsize is advisory for very large vars
	}
	return v
}

func (f *File) dimIndex(name string) int {
	for i, d := range f.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

func typeMatchesData(t Type, data any) bool {
	switch data.(type) {
	case []int8:
		return t == Byte
	case string:
		return t == Char
	case []int16:
		return t == Short
	case []int32:
		return t == Int
	case []float32:
		return t == Float
	case []float64:
		return t == Double
	default:
		return false
	}
}

type encoder struct {
	w   *bufio.Writer
	off int64
	err error
}

func (e *encoder) bytes(b []byte) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(b)
	e.off += int64(len(b))
}

func (e *encoder) i32(v int32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	e.bytes(b[:])
}

func (e *encoder) i64(v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	e.bytes(b[:])
}

func (e *encoder) list(tag int32, n int) {
	if n == 0 {
		e.i32(0) // ABSENT
		e.i32(0)
		return
	}
	e.i32(tag)
	e.i32(int32(n))
}

func (e *encoder) name(s string) {
	e.i32(int32(len(s)))
	e.bytes([]byte(s))
	e.padTo4()
}

func (e *encoder) padTo4() {
	for e.off%4 != 0 {
		e.bytes([]byte{0})
	}
}

func (e *encoder) attrs(attrs []Attribute) {
	e.list(tagAttribute, len(attrs))
	for _, a := range attrs {
		e.name(a.Name)
		e.i32(int32(a.Type))
		e.i32(int32(dataLen(a.Values)))
		e.values(a.Values, 0, dataLen(a.Values), a.Type)
		e.padTo4()
	}
}

// values writes count items of data starting at item offset start.
func (e *encoder) values(data any, start, count int, t Type) {
	switch d := data.(type) {
	case string:
		e.bytes([]byte(d[start : start+count]))
	case []int8:
		buf := make([]byte, count)
		for i, v := range d[start : start+count] {
			buf[i] = byte(v)
		}
		e.bytes(buf)
	case []int16:
		buf := make([]byte, 2*count)
		for i, v := range d[start : start+count] {
			binary.BigEndian.PutUint16(buf[2*i:], uint16(v))
		}
		e.bytes(buf)
	case []int32:
		buf := make([]byte, 4*count)
		for i, v := range d[start : start+count] {
			binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
		}
		e.bytes(buf)
	case []float32:
		buf := make([]byte, 4*count)
		for i, v := range d[start : start+count] {
			binary.BigEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		e.bytes(buf)
	case []float64:
		buf := make([]byte, 8*count)
		for i, v := range d[start : start+count] {
			binary.BigEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		e.bytes(buf)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("netcdf: unsupported data %T", data)
		}
	}
}

// Marshal serializes to a byte slice.
func (f *File) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile writes the dataset to disk. The separated-scheme harness uses
// this (and ReadFile) so the baseline pays the same disk round trip the
// paper's netCDF library forced.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
