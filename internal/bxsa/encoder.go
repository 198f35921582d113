package bxsa

import (
	"fmt"
	"strconv"
	"sync"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/vls"
	"bxsoap/internal/xbs"
)

// EncodeOptions control BXSA serialization.
type EncodeOptions struct {
	// Order is the byte order stamped into every frame this encoder
	// produces. The zero value is xbs.Native (little-endian).
	Order xbs.ByteOrder
}

// trailerRoom is the spare capacity MarshalAppend leaves past the message
// when it must grow dst. It is part of MarshalAppend's contract: wssec
// appends its HMAC-SHA256 tag (sha256.Size = 32 bytes) after the BXSA
// message, and wssec's TestMarshalAppendLeavesTagRoom ties the two sizes.
const trailerRoom = 32

// Marshal serializes a bXDM tree to BXSA.
func Marshal(n bxdm.Node, opts EncodeOptions) ([]byte, error) {
	return MarshalAppend(nil, n, opts)
}

// MarshalAppend serializes a bXDM tree to BXSA by appending to dst and
// returning the extended slice. Because the measure pass computes the exact
// encoded size first, the destination grows at most once — callers handing
// in a pooled buffer of roughly the right capacity get a zero-allocation
// emit. A grown destination keeps trailerRoom (32) spare bytes past the
// message, so a caller that appends a trailer of up to that size, as
// wssec does with its tag, does not grow it again.
func MarshalAppend(dst []byte, n bxdm.Node, opts EncodeOptions) ([]byte, error) {
	e, err := newEncoding(n, opts)
	if err != nil {
		return nil, err
	}
	if need := len(dst) + e.total; cap(dst) < need {
		nb := make([]byte, len(dst), need+trailerRoom)
		copy(nb, dst)
		dst = nb
	}
	e.sink.buf = dst
	e.sink.base = len(dst)
	err = e.emit(n)
	out := e.sink.buf
	e.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeChunked serializes a bXDM tree as a sequence of byte windows of
// roughly chunkBytes each, calling flush once per completed window in
// order. The window aliases an internal buffer that is reused after flush
// returns, so flush must copy what it keeps. The concatenation of all
// windows is byte-identical to Marshal's output for the same options.
//
// Memory stays bounded by the window: the emit pass spills between nodes,
// between array batches, and inside long strings. The measure pass still
// runs first, but it is O(nodes) and never touches array payload bytes, so
// time to the first window is independent of bulk payload size.
func EncodeChunked(n bxdm.Node, opts EncodeOptions, chunkBytes int, flush func([]byte) error) error {
	if chunkBytes <= 0 {
		return fmt.Errorf("bxsa: EncodeChunked: chunkBytes %d must be positive", chunkBytes)
	}
	e, err := newEncoding(n, opts)
	if err != nil {
		return err
	}
	e.flush = flush
	e.chunkBytes = chunkBytes
	// Window capacity leaves headroom for the per-node overshoot (the spill
	// check runs between appends, so a node prelude or one 4096-element
	// array batch can land past the threshold before the next check).
	if cap(e.sbuf) < chunkBytes+chunkSlop {
		e.sbuf = make([]byte, 0, chunkBytes+chunkSlop)
	}
	e.sink.buf = e.sbuf[:0]
	e.sink.base = 0
	err = e.emit(n)
	if err == nil {
		err = e.spill() // the final partial window
	}
	e.sbuf = e.sink.buf[:0]
	e.release()
	return err
}

// chunkSlop bounds how far a window may overshoot chunkBytes: spill checks
// sit between appends, and the largest single append between two checks is
// one xbs array batch (4096 elements of at most 8 bytes).
const chunkSlop = 4096*8 + 512

// EncodedSize reports the exact number of bytes Marshal will produce,
// without encoding. Table 1 uses it, and senders use it for preallocation
// and framing headers.
func EncodedSize(n bxdm.Node, opts EncodeOptions) (int, error) {
	e, err := newEncoding(n, opts)
	if err != nil {
		return 0, err
	}
	total := e.total
	e.release()
	return total, nil
}

// sliceSink is an offset-tracked append sink for the emit pass. Offsets are
// relative to base — the message's first byte — so array alignment agrees
// with the decoder even when the message is appended after unrelated bytes
// (e.g. a wssec authentication frame).
type sliceSink struct {
	buf  []byte
	base int
}

func (s *sliceSink) offset() int { return len(s.buf) - s.base }

// layout is the resolved wire form of one element frame, computed in the
// measure pass so namespace resolution happens exactly once.
type layout struct {
	decls     []bxdm.NamespaceDecl // effective decls (explicit + synthesized)
	nameRef   nsref
	attrStart int // index of this element's refs in encoding.attrRefs
}

// nsref is a tokenized namespace reference. depthPlus1 == 0 means "no
// namespace"; otherwise depth = depthPlus1-1 tables back, index into it.
type nsref struct {
	depthPlus1 uint64
	index      uint64
}

func (r nsref) encodedLen() int {
	n := vls.EncodedLen(r.depthPlus1)
	if r.depthPlus1 > 0 {
		n += vls.EncodedLen(r.index)
	}
	return n
}

// frameRec is the measured form of one frame. Measure appends one record
// per node in document pre-order; emit walks the same order with a cursor,
// so no per-node map is needed and the whole layout state recycles through
// encPool between messages.
type frameRec struct {
	body   int
	layout layout // meaningful only for element-kind frames
}

// encoding holds the per-document layout state shared by the two passes.
// Instances are pooled: frames, the attrRefs arena, the namespace scope,
// and the array writer all keep their capacity across messages.
type encoding struct {
	opts     EncodeOptions
	frames   []frameRec
	attrRefs []nsref
	total    int
	auto     int
	cursor   int
	scope    bxdm.NSScope
	sink     sliceSink
	xw       xbs.Writer
	// record asks emit to note the byte window of every variable scalar
	// and array payload in slots (template compilation only; the normal
	// encode path pays one predictable branch per leaf).
	record bool
	slots  []slot
	// Streamed emit (EncodeChunked): flush receives each completed window,
	// sbuf is the pooled window buffer, flushErr latches the first flush
	// failure so later spill sites degrade to no-ops. flush == nil is the
	// buffered path with zero extra work beyond one nil check per node.
	flush      func([]byte) error
	chunkBytes int
	sbuf       []byte
	flushErr   error
}

// spill hands the accumulated window to flush and rewinds the buffer. The
// sink base shifts down by the flushed length so offset() keeps reporting
// document-absolute positions (array alignment depends on it).
func (e *encoding) spill() error {
	if e.flushErr != nil {
		return e.flushErr
	}
	if len(e.sink.buf) == 0 {
		return nil
	}
	if err := e.flush(e.sink.buf); err != nil {
		e.flushErr = err
		return err
	}
	e.sink.base -= len(e.sink.buf)
	e.sink.buf = e.sink.buf[:0]
	return nil
}

// spillMaybe spills when the window has reached the chunk size. Cheap
// enough to call between every append run.
func (e *encoding) spillMaybe() error {
	if e.flush == nil || len(e.sink.buf) < e.chunkBytes {
		return nil
	}
	return e.spill()
}

// appendChunked appends s to the sink in window-sized pieces, spilling
// between them, so a single huge string never materializes in memory. The
// buffered path (flush == nil) is one plain append.
func (e *encoding) appendChunked(s string) error {
	if e.flush == nil {
		e.sink.buf = append(e.sink.buf, s...)
		return nil
	}
	for len(s) > 0 {
		if err := e.spillMaybe(); err != nil {
			return err
		}
		k := min(e.chunkBytes, len(s))
		e.sink.buf = append(e.sink.buf, s[:k]...)
		s = s[k:]
	}
	return nil
}

var encPool = sync.Pool{New: func() any { return new(encoding) }}

func newEncoding(root bxdm.Node, opts EncodeOptions) (*encoding, error) {
	e := encPool.Get().(*encoding)
	e.opts = opts
	e.frames = e.frames[:0]
	e.attrRefs = e.attrRefs[:0]
	e.auto = 0
	e.cursor = 0
	e.record = false
	e.flush = nil
	e.chunkBytes = 0
	e.flushErr = nil
	for e.scope.Depth() > 0 { // a failed earlier measure may have left frames pushed
		e.scope.Pop()
	}
	total, err := e.measure(root, &e.scope)
	if err != nil {
		e.release()
		return nil, err
	}
	e.total = total
	return e, nil
}

// release drops references into the encoded document and files the state
// back in the pool.
func (e *encoding) release() {
	for i := range e.frames {
		e.frames[i].layout.decls = nil
	}
	e.frames = e.frames[:0]
	e.attrRefs = e.attrRefs[:0]
	e.sink.buf = nil
	e.sink.base = 0
	e.record = false
	e.slots = nil
	e.flush = nil
	e.flushErr = nil
	encPool.Put(e)
}

// measure computes the frame size of n (and all descendants), resolving
// namespaces along the way and appending one frameRec per node in
// pre-order.
func (e *encoding) measure(n bxdm.Node, scope *bxdm.NSScope) (int, error) {
	idx := len(e.frames)
	e.frames = append(e.frames, frameRec{})
	var body int
	var l layout
	switch x := n.(type) {
	case *bxdm.Document:
		body = vls.EncodedLen(uint64(len(x.Children)))
		for _, c := range x.Children {
			s, err := e.measure(c, scope)
			if err != nil {
				return 0, err
			}
			body += s
		}
	case *bxdm.Element:
		common, err := e.measureCommon(&x.ElemCommon, scope)
		if err != nil {
			return 0, err
		}
		l = common.layout
		body = common.size + vls.EncodedLen(uint64(len(x.Children)))
		for _, c := range x.Children {
			s, err := e.measure(c, scope)
			if err != nil {
				scope.Pop()
				return 0, err
			}
			body += s
		}
		scope.Pop()
	case *bxdm.LeafElement:
		common, err := e.measureCommon(&x.ElemCommon, scope)
		if err != nil {
			return 0, err
		}
		scope.Pop()
		l = common.layout
		sz, err := scalarSize(x.Value)
		if err != nil {
			return 0, err
		}
		body = common.size + 1 + sz
	case *bxdm.ArrayElement:
		common, err := e.measureCommon(&x.ElemCommon, scope)
		if err != nil {
			return 0, err
		}
		scope.Pop()
		l = common.layout
		if !x.Data.Type().Valid() || x.Data.Type() == bxdm.TString || x.Data.Type() == bxdm.TBool {
			return 0, fmt.Errorf("bxsa: array element %s has invalid item type %v", x.Name, x.Data.Type())
		}
		body = common.size + 1 + vls.EncodedLen(uint64(x.Data.Len())) + slackBytes + x.Data.ByteLen()
	case *bxdm.Text:
		body = vls.EncodedLen(uint64(len(x.Data))) + len(x.Data)
	case *bxdm.Comment:
		body = vls.EncodedLen(uint64(len(x.Data))) + len(x.Data)
	case *bxdm.PI:
		body = vls.EncodedLen(uint64(len(x.Target))) + len(x.Target) +
			vls.EncodedLen(uint64(len(x.Data))) + len(x.Data)
	default:
		return 0, fmt.Errorf("bxsa: cannot encode node %T", n)
	}
	e.frames[idx].body = body
	e.frames[idx].layout = l
	return 1 + vls.EncodedLen(uint64(body)) + body, nil
}

// measuredCommon is measureCommon's result: the element layout plus the
// byte size of the common section.
type measuredCommon struct {
	layout layout
	size   int
}

// measureCommon resolves the element's namespace table, name, and attributes
// and returns the layout and common-section size. It leaves the element's
// scope PUSHED; the caller pops after measuring children.
func (e *encoding) measureCommon(c *bxdm.ElemCommon, scope *bxdm.NSScope) (measuredCommon, error) {
	decls := e.effectiveDecls(c, scope)
	scope.Push(decls)
	m := measuredCommon{layout: layout{decls: decls, attrStart: len(e.attrRefs)}}

	size := vls.EncodedLen(uint64(len(decls)))
	for _, d := range decls {
		size += vls.EncodedLen(uint64(len(d.Prefix))) + len(d.Prefix)
		size += vls.EncodedLen(uint64(len(d.URI))) + len(d.URI)
	}

	ref, err := resolveRef(scope, c.Name.Space)
	if err != nil {
		scope.Pop()
		return m, fmt.Errorf("bxsa: element %s: %w", c.Name, err)
	}
	m.layout.nameRef = ref
	size += ref.encodedLen()
	size += vls.EncodedLen(uint64(len(c.Name.Local))) + len(c.Name.Local)

	size += vls.EncodedLen(uint64(len(c.Attributes)))
	for _, a := range c.Attributes {
		ar, err := resolveRef(scope, a.Name.Space)
		if err != nil {
			scope.Pop()
			return m, fmt.Errorf("bxsa: attribute %s: %w", a.Name, err)
		}
		e.attrRefs = append(e.attrRefs, ar)
		size += ar.encodedLen()
		size += vls.EncodedLen(uint64(len(a.Name.Local))) + len(a.Name.Local)
		sz, err := scalarSize(a.Value)
		if err != nil {
			scope.Pop()
			return m, fmt.Errorf("bxsa: attribute %s: %w", a.Name, err)
		}
		size += 1 + sz
	}
	m.size = size
	return m, nil
}

// effectiveDecls returns the element's declarations plus synthesized ones
// for any namespace used by the element or attribute names that is not in
// scope (mirrors the XML writer's auto-declaration, so arbitrary trees are
// encodable). The common case — nothing to synthesize — aliases the
// element's own declaration slice; a copy is made only on first append.
func (e *encoding) effectiveDecls(c *bxdm.ElemCommon, scope *bxdm.NSScope) []bxdm.NamespaceDecl {
	decls := c.NamespaceDecls
	decls = e.ensureDecl(decls, c.NamespaceDecls, scope, c.Name.Space, c.Name.Prefix)
	for _, a := range c.Attributes {
		decls = e.ensureDecl(decls, c.NamespaceDecls, scope, a.Name.Space, a.Name.Prefix)
	}
	return decls
}

func (e *encoding) ensureDecl(decls, orig []bxdm.NamespaceDecl, scope *bxdm.NSScope, space, hint string) []bxdm.NamespaceDecl {
	if space == "" || declsHaveURI(decls, space) {
		return decls
	}
	if _, _, err := scope.Resolve(space); err == nil {
		return decls
	}
	prefix := hint
	if prefix == "" || declsHavePrefix(decls, prefix) {
		for {
			e.auto++
			prefix = "ns" + strconv.Itoa(e.auto)
			if !declsHavePrefix(decls, prefix) {
				break
			}
		}
	}
	if len(decls) == len(orig) {
		// Still aliasing the element's own slice; copy before appending so
		// the document is never mutated through shared capacity.
		nd := make([]bxdm.NamespaceDecl, len(decls), len(decls)+2)
		copy(nd, decls)
		decls = nd
	}
	return append(decls, bxdm.NamespaceDecl{Prefix: prefix, URI: space})
}

func declsHaveURI(decls []bxdm.NamespaceDecl, uri string) bool {
	for _, d := range decls {
		if d.URI == uri {
			return true
		}
	}
	return false
}

func declsHavePrefix(decls []bxdm.NamespaceDecl, prefix string) bool {
	for _, d := range decls {
		if d.Prefix == prefix {
			return true
		}
	}
	return false
}

func resolveRef(scope *bxdm.NSScope, space string) (nsref, error) {
	if space == "" {
		return nsref{}, nil
	}
	depth, index, err := scope.Resolve(space)
	if err != nil {
		return nsref{}, err
	}
	return nsref{depthPlus1: uint64(depth) + 1, index: uint64(index)}, nil
}

func scalarSize(v bxdm.Value) (int, error) {
	switch v.Type() {
	case bxdm.TString:
		s := v.Text()
		return vls.EncodedLen(uint64(len(s))) + len(s), nil
	case bxdm.TBool:
		return 1, nil
	default:
		if sz := v.Type().Size(); sz > 0 {
			return sz, nil
		}
		return 0, fmt.Errorf("bxsa: cannot encode value of type %v", v.Type())
	}
}

// ---------------------------------------------------------------------------
// Emit pass

// emit walks the tree in the same pre-order as measure, consuming one
// frameRec per node via the cursor. In streamed mode the window spills
// between nodes; every other byte run between spill checks is small and
// bounded, except strings and arrays, which have their own interior
// spill points.
func (e *encoding) emit(n bxdm.Node) error {
	if err := e.spillMaybe(); err != nil {
		return err
	}
	rec := &e.frames[e.cursor]
	e.cursor++
	ft, err := frameTypeFor(n)
	if err != nil {
		return err
	}
	w := &e.sink
	w.buf = append(w.buf, prefixByte(e.opts.Order, ft))
	w.buf = vls.AppendUint(w.buf, uint64(rec.body))

	switch x := n.(type) {
	case *bxdm.Document:
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Children)))
		for _, c := range x.Children {
			if err := e.emit(c); err != nil {
				return err
			}
		}
	case *bxdm.Element:
		if err := e.emitCommon(&x.ElemCommon, &rec.layout); err != nil {
			return err
		}
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Children)))
		for _, c := range x.Children {
			if err := e.emit(c); err != nil {
				return err
			}
		}
	case *bxdm.LeafElement:
		if err := e.emitCommon(&x.ElemCommon, &rec.layout); err != nil {
			return err
		}
		start := w.offset()
		if err := e.emitScalar(x.Value); err != nil {
			return err
		}
		if e.record {
			e.recordLeaf(x.Value, start)
		}
	case *bxdm.ArrayElement:
		if err := e.emitCommon(&x.ElemCommon, &rec.layout); err != nil {
			return err
		}
		w.buf = append(w.buf, byte(x.Data.Type()))
		w.buf = vls.AppendUint(w.buf, uint64(x.Data.Len()))
		if err := e.emitArrayData(x.Data); err != nil {
			return err
		}
	case *bxdm.Text:
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Data)))
		if err := e.appendChunked(x.Data); err != nil {
			return err
		}
	case *bxdm.Comment:
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Data)))
		if err := e.appendChunked(x.Data); err != nil {
			return err
		}
	case *bxdm.PI:
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Target)))
		w.buf = append(w.buf, x.Target...)
		w.buf = vls.AppendUint(w.buf, uint64(len(x.Data)))
		if err := e.appendChunked(x.Data); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoding) emitCommon(c *bxdm.ElemCommon, l *layout) error {
	w := &e.sink
	w.buf = vls.AppendUint(w.buf, uint64(len(l.decls)))
	for _, d := range l.decls {
		w.buf = vls.AppendUint(w.buf, uint64(len(d.Prefix)))
		w.buf = append(w.buf, d.Prefix...)
		w.buf = vls.AppendUint(w.buf, uint64(len(d.URI)))
		w.buf = append(w.buf, d.URI...)
	}
	emitRef(w, l.nameRef)
	w.buf = vls.AppendUint(w.buf, uint64(len(c.Name.Local)))
	w.buf = append(w.buf, c.Name.Local...)
	w.buf = vls.AppendUint(w.buf, uint64(len(c.Attributes)))
	for i, a := range c.Attributes {
		emitRef(w, e.attrRefs[l.attrStart+i])
		w.buf = vls.AppendUint(w.buf, uint64(len(a.Name.Local)))
		w.buf = append(w.buf, a.Name.Local...)
		if err := e.emitScalar(a.Value); err != nil {
			return err
		}
	}
	return nil
}

func emitRef(w *sliceSink, r nsref) {
	w.buf = vls.AppendUint(w.buf, r.depthPlus1)
	if r.depthPlus1 > 0 {
		w.buf = vls.AppendUint(w.buf, r.index)
	}
}

func (e *encoding) emitScalar(v bxdm.Value) error {
	w := &e.sink
	w.buf = append(w.buf, byte(v.Type()))
	switch v.Type() {
	case bxdm.TString:
		s := v.Text()
		w.buf = vls.AppendUint(w.buf, uint64(len(s)))
		if err := e.appendChunked(s); err != nil {
			return err
		}
	case bxdm.TBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		w.buf = append(w.buf, b)
	default:
		w.buf = appendNative(w.buf, v.Bits(), v.Type().Size(), e.opts.Order)
	}
	return nil
}

func appendNative(buf []byte, bits uint64, size int, order xbs.ByteOrder) []byte {
	if order == xbs.LittleEndian {
		for i := 0; i < size; i++ {
			buf = append(buf, byte(bits>>(8*i)))
		}
	} else {
		for i := size - 1; i >= 0; i-- {
			buf = append(buf, byte(bits>>(8*i)))
		}
	}
	return buf
}

func (e *encoding) emitArrayData(d bxdm.ArrayData) error {
	w := &e.sink
	elem := d.Type().Size()
	off := w.offset() // offset of the pad-count byte
	pad := 0
	if elem > 1 {
		pad = (elem - (off+1)%elem) % elem
	}
	w.buf = append(w.buf, byte(pad))
	for i := 0; i < pad; i++ {
		w.buf = append(w.buf, 0)
	}
	if e.record {
		e.slots = append(e.slots, slot{
			win:   Window{Off: w.offset(), Len: d.ByteLen()},
			kind:  bxdm.KindArrayElement,
			code:  d.Type(),
			count: d.Len(),
		})
	}
	// The data region is now aligned document-absolute; stream it through
	// XBS (whose own Align is a no-op here by construction) directly into
	// the output buffer, reusing the pooled writer across arrays. The
	// arrayWriter spills full windows between XBS batches, which is what
	// bounds memory while a multi-GB array flows through.
	e.xw.Reset((*arrayWriter)(e), e.opts.Order, int64(w.offset()))
	if err := d.WriteXBS(&e.xw); err != nil {
		return err
	}
	for i := 0; i < slackBytes-1-pad; i++ {
		w.buf = append(w.buf, 0)
	}
	return nil
}

// arrayWriter adapts the encoding to io.Writer for streaming array
// payloads into the sink. It is a type-cast of *encoding (not a separate
// struct) so handing it to the XBS writer allocates nothing, and it checks
// the spill threshold between batches — XBS writes arrays in bounded
// batches, so each Write stays within the window slop.
type arrayWriter encoding

func (a *arrayWriter) Write(p []byte) (int, error) {
	e := (*encoding)(a)
	if err := e.spillMaybe(); err != nil {
		return 0, err
	}
	e.sink.buf = append(e.sink.buf, p...)
	return len(p), nil
}
