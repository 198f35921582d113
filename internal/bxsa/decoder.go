package bxsa

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/vls"
	"bxsoap/internal/xbs"
)

// The decoder is one walker over the frame grammar in format.go. Parse,
// DecodeReader and the Scanner all read frames through it; only the byte
// source differs: the caller's buffer (sliceSource) or a stream
// (readerSource). The walker checks every declared length against the end
// of the enclosing frame. A top-level frame's bound is len(data) for a
// buffer and maxStreamBound for a stream.

// maxStreamBound caps a stream's top-level frame body. It exists only to
// keep end-offset arithmetic overflow-free; a stream's real bound is that
// readerSource allocates as data arrives.
const maxStreamBound = math.MaxInt64 / 4

// growChunk is the window readerSource reads long strings in.
const growChunk = 256 << 10

var errTruncated = errors.New("truncated frame")

// source supplies the walker's bytes. Reading past the end of the input
// fails with errTruncated. The walker has checked every length it passes
// against the enclosing frame before it asks for the bytes.
type source interface {
	// offset is the document-absolute offset of the next unread byte.
	offset() int
	readByte() (byte, error)
	readVLS() (uint64, error)
	readString(n int) (string, error)
	// readSmall returns the next n ≤ 8 bytes, valid until the next read.
	readSmall(n int) ([]byte, error)
	// readArray reads n packed items of type code in byte order o.
	readArray(code bxdm.TypeCode, n int, o xbs.ByteOrder) (bxdm.ArrayData, error)
	// atEOF reports an error unless the input ends at the current offset.
	atEOF() error
}

// walker decodes frames from src, resolving tokenized namespace
// references through scope.
type walker struct {
	src   source
	scope bxdm.NSScope
}

// fits reports whether n items of size bytes fit between the current
// offset and end. A read that has already run past end fits nothing.
func (w *walker) fits(n uint64, size, end int) bool {
	left := end - w.src.offset()
	return left >= 0 && n <= uint64(left)/uint64(size)
}

// readLen reads a VLS length and checks it against limit and against the
// bytes left before end.
func (w *walker) readLen(end, limit int, what string) (int, error) {
	v, err := w.src.readVLS()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("%s length %d exceeds limit %d", what, v, limit)
	}
	if !w.fits(v, 1, end) {
		return 0, fmt.Errorf("%s length %d exceeds enclosing frame", what, v)
	}
	return int(v), nil
}

func (w *walker) readString(end, limit int, what string) (string, error) {
	n, err := w.readLen(end, limit, what)
	if err != nil {
		return "", err
	}
	return w.src.readString(n)
}

func (w *walker) childCount(end int) (int, error) {
	return w.readLen(end, maxStreamBound, "child count")
}

// header reads a frame's prefix and size. It returns the frame's byte
// order, its type and the offset where its body ends, which is not past
// bound.
func (w *walker) header(bound int) (xbs.ByteOrder, FrameType, int, error) {
	pb, err := w.src.readByte()
	if err != nil {
		return 0, 0, 0, err
	}
	order, ft := splitPrefix(pb)
	if order > xbs.BigEndian {
		return 0, 0, 0, fmt.Errorf("invalid byte-order bits %d", order)
	}
	size, err := w.readLen(bound, maxStreamBound, "frame body")
	if err != nil {
		return 0, 0, 0, err
	}
	return order, ft, w.src.offset() + size, nil
}

// frame decodes one complete frame that ends no later than bound.
func (w *walker) frame(bound int) (bxdm.Node, error) {
	order, ft, end, err := w.header(bound)
	if err != nil {
		return nil, err
	}
	var n bxdm.Node
	switch ft {
	case FrameDocument:
		doc := &bxdm.Document{}
		doc.Children, err = w.children(end)
		n = doc
	case FrameElement, FrameLeaf, FrameArray:
		n, err = w.element(ft, order, end)
	case FrameCharData:
		s, e2 := w.readString(end, maxStringLen, "chardata")
		n, err = &bxdm.Text{Data: s}, e2
	case FrameComment:
		s, e2 := w.readString(end, maxStringLen, "comment")
		n, err = &bxdm.Comment{Data: s}, e2
	case FramePI:
		var target, data string
		if target, err = w.readString(end, maxNameLen, "pi target"); err == nil {
			data, err = w.readString(end, maxStringLen, "pi data")
		}
		n = &bxdm.PI{Target: target, Data: data}
	default:
		return nil, fmt.Errorf("unknown frame type %d", ft)
	}
	if err != nil {
		return nil, err
	}
	if off := w.src.offset(); off != end {
		return nil, fmt.Errorf("%v frame content ends at offset %d, its size says %d", ft, off, end)
	}
	return n, nil
}

// children reads a child count and that many frames, all ending by end.
func (w *walker) children(end int) ([]bxdm.Node, error) {
	count, err := w.childCount(end)
	if err != nil {
		return nil, err
	}
	kids := make([]bxdm.Node, 0, min(count, 64))
	for range count {
		if w.src.offset() >= end {
			return nil, errors.New("children overflow frame body")
		}
		c, err := w.frame(end)
		if err != nil {
			return nil, err
		}
		kids = append(kids, c)
	}
	return kids, nil
}

// element decodes the body of a component-element, leaf or array frame.
func (w *walker) element(ft FrameType, order xbs.ByteOrder, end int) (bxdm.Node, error) {
	c, err := w.common(order, end)
	if err != nil {
		return nil, err
	}
	defer w.scope.Pop()
	switch ft {
	case FrameLeaf:
		v, err := w.scalar(order, end)
		if err != nil {
			return nil, err
		}
		return &bxdm.LeafElement{ElemCommon: c, Value: v}, nil
	case FrameArray:
		data, err := w.array(order, end)
		if err != nil {
			return nil, err
		}
		return &bxdm.ArrayElement{ElemCommon: c, Data: data}, nil
	default:
		kids, err := w.children(end)
		if err != nil {
			return nil, err
		}
		return &bxdm.Element{ElemCommon: c, Children: kids}, nil
	}
}

// common reads an element frame's common section (namespace table, name,
// attributes) and enters the element's namespace scope; the caller leaves
// it once the body is read. A failed walk is abandoned, scope and all.
func (w *walker) common(order xbs.ByteOrder, end int) (bxdm.ElemCommon, error) {
	var c bxdm.ElemCommon
	n1, err := w.readLen(end, maxStreamBound, "namespace declaration count")
	if err != nil {
		return c, err
	}
	for range n1 {
		prefix, err := w.readString(end, maxNameLen, "namespace prefix")
		if err != nil {
			return c, err
		}
		uri, err := w.readString(end, maxURILen, "namespace URI")
		if err != nil {
			return c, err
		}
		c.NamespaceDecls = append(c.NamespaceDecls, bxdm.NamespaceDecl{Prefix: prefix, URI: uri})
	}
	w.scope.Push(c.NamespaceDecls)
	if c.Name, err = w.qname(end, "element name"); err != nil {
		return c, err
	}
	n2, err := w.readLen(end, maxStreamBound, "attribute count")
	if err != nil {
		return c, err
	}
	for range n2 {
		name, err := w.qname(end, "attribute name")
		if err != nil {
			return c, err
		}
		v, err := w.scalar(order, end)
		if err != nil {
			return c, err
		}
		c.Attributes = append(c.Attributes, bxdm.Attribute{Name: name, Value: v})
	}
	return c, nil
}

// qname reads a tokenized namespace reference plus local name; what names
// the name in errors.
func (w *walker) qname(end int, what string) (bxdm.QName, error) {
	var q bxdm.QName
	depthPlus1, err := w.src.readVLS()
	if err != nil {
		return q, err
	}
	if depthPlus1 > 0 {
		index, err := w.src.readVLS()
		if err != nil {
			return q, err
		}
		decl, err := w.scope.Lookup(int(depthPlus1-1), int(index))
		if err != nil {
			return q, fmt.Errorf("%s: namespace reference: %v", what, err)
		}
		q.Space, q.Prefix = decl.URI, decl.Prefix
	}
	if q.Local, err = w.readString(end, maxNameLen, what); err != nil {
		return q, err
	}
	if q.Local == "" {
		return q, fmt.Errorf("empty %s name", what)
	}
	return q, nil
}

func (w *walker) scalar(order xbs.ByteOrder, end int) (bxdm.Value, error) {
	tb, err := w.src.readByte()
	if err != nil {
		return bxdm.Value{}, err
	}
	code := bxdm.TypeCode(tb)
	switch code {
	case bxdm.TString:
		s, err := w.readString(end, maxStringLen, "string value")
		return bxdm.StringValue(s), err
	case bxdm.TBool:
		b, err := w.src.readByte()
		if err != nil {
			return bxdm.Value{}, err
		}
		if b > 1 {
			return bxdm.Value{}, fmt.Errorf("invalid boolean byte %d", b)
		}
		return bxdm.BoolValue(b == 1), nil
	}
	size := code.Size()
	if size <= 0 {
		return bxdm.Value{}, fmt.Errorf("invalid value type code %d", tb)
	}
	if !w.fits(1, size, end) {
		return bxdm.Value{}, fmt.Errorf("truncated %v value", code)
	}
	b, err := w.src.readSmall(size)
	if err != nil {
		return bxdm.Value{}, err
	}
	return valueFromBits(code, readNative(b, order)), nil
}

// array reads an array frame's item type, count, pad, packed items and
// slack. The pad puts the items at a document-absolute multiple of their
// size; the walker verifies that rather than read misaligned data.
func (w *walker) array(order xbs.ByteOrder, end int) (bxdm.ArrayData, error) {
	tb, err := w.src.readByte()
	if err != nil {
		return nil, err
	}
	code := bxdm.TypeCode(tb)
	size := code.Size()
	if size <= 0 || code == bxdm.TBool {
		return nil, fmt.Errorf("invalid array item type code %d", tb)
	}
	count, err := w.src.readVLS()
	if err != nil {
		return nil, err
	}
	if !w.fits(count, size, end) {
		return nil, fmt.Errorf("array count %d exceeds enclosing frame", count)
	}
	pad, err := w.src.readByte()
	if err != nil {
		return nil, err
	}
	if pad >= slackBytes {
		return nil, fmt.Errorf("invalid array pad %d", pad)
	}
	n := int(count)
	if !w.fits(uint64(n*size+slackBytes-1), 1, end) {
		return nil, errors.New("truncated array data")
	}
	if err := w.zeros(int(pad), "padding"); err != nil {
		return nil, err
	}
	if off := w.src.offset(); off%size != 0 {
		return nil, fmt.Errorf("array data misaligned: offset %d for item size %d", off, size)
	}
	data, err := w.src.readArray(code, n, order)
	if err != nil {
		return nil, err
	}
	if err := w.zeros(slackBytes-1-int(pad), "slack"); err != nil {
		return nil, err
	}
	return data, nil
}

func (w *walker) zeros(n int, what string) error {
	b, err := w.src.readSmall(n)
	if err != nil {
		return err
	}
	for _, c := range b {
		if c != 0 {
			return fmt.Errorf("non-zero array %s", what)
		}
	}
	return nil
}

func readNative(b []byte, order xbs.ByteOrder) uint64 {
	var bits uint64
	if order == xbs.LittleEndian {
		for i := len(b) - 1; i >= 0; i-- {
			bits = bits<<8 | uint64(b[i])
		}
	} else {
		for _, c := range b {
			bits = bits<<8 | uint64(c)
		}
	}
	return bits
}

// valueFromBits reconstructs a typed value from its native bit pattern,
// sign-extending signed integer types.
func valueFromBits(code bxdm.TypeCode, bits uint64) bxdm.Value {
	switch code {
	case bxdm.TInt8:
		return bxdm.Int8Value(int8(bits))
	case bxdm.TInt16:
		return bxdm.Int16Value(int16(bits))
	case bxdm.TInt32:
		return bxdm.Int32Value(int32(bits))
	case bxdm.TInt64:
		return bxdm.Int64Value(int64(bits))
	case bxdm.TUint8:
		return bxdm.Uint8Value(uint8(bits))
	case bxdm.TUint16:
		return bxdm.Uint16Value(uint16(bits))
	case bxdm.TUint32:
		return bxdm.Uint32Value(uint32(bits))
	case bxdm.TUint64:
		return bxdm.Uint64Value(bits)
	case bxdm.TFloat32:
		return bxdm.Float32Value(math.Float32frombits(uint32(bits)))
	default: // TFloat64
		return bxdm.Float64Value(math.Float64frombits(bits))
	}
}

// sliceSource reads in place from the caller's buffer: strings are copied
// out of it and arrays decode straight from their aligned position, with
// nothing buffered in between.
type sliceSource struct {
	data []byte
	off  int
}

func (s *sliceSource) offset() int { return s.off }

// next consumes and returns the next n bytes.
func (s *sliceSource) next(n int) ([]byte, error) {
	if n > len(s.data)-s.off {
		return nil, errTruncated
	}
	b := s.data[s.off : s.off+n]
	s.off += n
	return b, nil
}

func (s *sliceSource) readByte() (byte, error) {
	if s.off >= len(s.data) {
		return 0, errTruncated
	}
	s.off++
	return s.data[s.off-1], nil
}

func (s *sliceSource) readVLS() (uint64, error) {
	v, n, err := vls.Uint(s.data[s.off:])
	s.off += n
	return v, err
}

func (s *sliceSource) readString(n int) (string, error) {
	b, err := s.next(n)
	return string(b), err
}

func (s *sliceSource) readSmall(n int) ([]byte, error) { return s.next(n) }

func (s *sliceSource) readArray(code bxdm.TypeCode, n int, o xbs.ByteOrder) (bxdm.ArrayData, error) {
	b, err := s.next(n * code.Size())
	if err != nil {
		return nil, err
	}
	return bxdm.DecodePackedArray(code, b, n, o)
}

func (s *sliceSource) atEOF() error {
	if left := len(s.data) - s.off; left != 0 {
		return fmt.Errorf("%d trailing bytes after document frame", left)
	}
	return nil
}

// readerSource reads a document from a stream without materializing it.
// The walker bounds every declared size by the enclosing frame's declared
// end, not by input already in hand, so readerSource grows every
// allocation only as data actually arrives: strings in growChunk windows,
// arrays in xbs.ReadArrayGrow batches. A hostile declared size costs at
// most one bounded batch before the stream runs dry, and memory while
// decoding is the decoded tree plus a fixed window.
type readerSource struct {
	br    *bufio.Reader
	off   int // absolute offset of the next unread byte
	xr    xbs.Reader
	sbuf  []byte
	small [8]byte
}

// wrapEOF turns a stream that ends mid-frame into the decoder's uniform
// truncation error.
func wrapEOF(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return errTruncated
	}
	return err
}

func (s *readerSource) offset() int { return s.off }

func (s *readerSource) readByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err != nil {
		return 0, wrapEOF(err)
	}
	s.off++
	return b, nil
}

func (s *readerSource) readVLS() (uint64, error) {
	v, err := vls.ReadUint(s.br)
	if err != nil {
		return 0, wrapEOF(err)
	}
	// ReadUint rejects non-canonical encodings, so the consumed byte count
	// is exactly the canonical length.
	s.off += vls.EncodedLen(v)
	return v, nil
}

func (s *readerSource) readFull(b []byte) error {
	n, err := io.ReadFull(s.br, b)
	s.off += n
	return wrapEOF(err)
}

func (s *readerSource) readString(n int) (string, error) {
	if n <= growChunk {
		if cap(s.sbuf) < n {
			s.sbuf = make([]byte, n)
		}
		buf := s.sbuf[:n]
		if err := s.readFull(buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	if cap(s.sbuf) < growChunk {
		s.sbuf = make([]byte, growChunk)
	}
	var b strings.Builder
	for rem := n; rem > 0; {
		k := min(rem, growChunk)
		if err := s.readFull(s.sbuf[:k]); err != nil {
			return "", err
		}
		b.Write(s.sbuf[:k])
		rem -= k
	}
	return b.String(), nil
}

func (s *readerSource) readSmall(n int) ([]byte, error) {
	b := s.small[:n]
	return b, s.readFull(b)
}

func (s *readerSource) readArray(code bxdm.TypeCode, n int, o xbs.ByteOrder) (bxdm.ArrayData, error) {
	s.xr.Reset(s.br, o, int64(s.off))
	data, err := bxdm.ReadArrayXBSGrow(&s.xr, code, n)
	s.off = int(s.xr.Offset())
	return data, wrapEOF(err)
}

func (s *readerSource) atEOF() error {
	switch _, err := s.br.ReadByte(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("trailing bytes after document frame")
	default:
		return err
	}
}

// decoder is the pooled walker state: a walker plus storage for both
// sources, of which one is in use per decode. The decoded tree never
// aliases decoder state, so pooling is invisible to callers.
type decoder struct {
	walker
	slice  sliceSource
	reader readerSource
}

var decPool = sync.Pool{New: func() any { return new(decoder) }}

// sliceDecoder returns a pooled decoder reading data in place from off,
// with the ancestors' namespace tables in scope.
func sliceDecoder(data []byte, off int, scopes [][]bxdm.NamespaceDecl) *decoder {
	d := decPool.Get().(*decoder)
	d.slice = sliceSource{data: data, off: off}
	d.src = &d.slice
	for _, decls := range scopes {
		d.scope.Push(decls)
	}
	return d
}

// decode decodes one top-level frame ending no later than bound, which
// must be the whole input.
func (d *decoder) decode(bound int) (bxdm.Node, error) {
	n, err := d.frame(bound)
	if err == nil {
		err = d.src.atEOF()
	}
	if err = d.release(err); err != nil {
		return nil, err
	}
	return n, nil
}

// release returns d to the pool. A non-nil err comes back wrapped with
// the offset the walk stopped at.
func (d *decoder) release(err error) error {
	if err != nil {
		err = fmt.Errorf("bxsa: %w at byte %d", err, d.src.offset())
	}
	for d.scope.Depth() > 0 {
		d.scope.Pop()
	}
	d.src, d.slice = nil, sliceSource{}
	if d.reader.br != nil {
		d.reader.br.Reset(nil)
	}
	d.reader.xr.Reset(nil, xbs.Native, 0)
	decPool.Put(d)
	return err
}

// Parse decodes a BXSA document into a bXDM tree. The input must contain
// exactly one top-level frame (normally a document frame; a bare element
// frame is also accepted and returned as-is). The returned tree does not
// alias data: callers may recycle the buffer as soon as Parse returns.
func Parse(data []byte) (bxdm.Node, error) {
	return sliceDecoder(data, 0, nil).decode(len(data))
}

// ParseDocument decodes and requires a document frame.
func ParseDocument(data []byte) (*bxdm.Document, error) {
	return asDocument(Parse(data))
}

// DecodeReader parses exactly one BXSA frame from r, which must be
// positioned at the document's first byte and end (io.EOF) after its last
// — the streaming counterpart of Parse. The decoded tree never aliases
// decoder state.
func DecodeReader(r io.Reader) (bxdm.Node, error) {
	d := decPool.Get().(*decoder)
	if d.reader.br == nil {
		d.reader.br = bufio.NewReaderSize(r, 32<<10)
	} else {
		d.reader.br.Reset(r)
	}
	d.reader.off = 0
	d.src = &d.reader
	return d.decode(maxStreamBound)
}

// DecodeDocumentReader decodes from r and requires a document frame.
func DecodeDocumentReader(r io.Reader) (*bxdm.Document, error) {
	return asDocument(DecodeReader(r))
}

func asDocument(n bxdm.Node, err error) (*bxdm.Document, error) {
	if err != nil {
		return nil, err
	}
	doc, ok := n.(*bxdm.Document)
	if !ok {
		return nil, fmt.Errorf("bxsa: top-level frame is %v, not a document", n.Kind())
	}
	return doc, nil
}
