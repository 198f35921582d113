// Package xmltext implements the XML 1.0 serialization of the bXDM data
// model and a from-scratch XML parser producing bXDM trees. It is one of the
// two default encoding-policy models of the generic SOAP engine (paper §5.2,
// "XMLEncoding"), and supplies the transcodability path of §4.2: when type
// hints are enabled, typed leaf values carry xsi:type attributes and packed
// arrays carry SOAP-encoding arrayType attributes, so a textual document can
// be converted back into the identical typed bXDM tree.
package xmltext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"bxsoap/internal/bxdm"
)

// Namespace URIs used by the type-hint machinery.
const (
	XSINamespace = "http://www.w3.org/2001/XMLSchema-instance"
	XSDNamespace = "http://www.w3.org/2001/XMLSchema"
	ENCNamespace = "http://schemas.xmlsoap.org/soap/encoding/"
)

// EncodeOptions control XML serialization.
type EncodeOptions struct {
	// XMLDecl emits the <?xml version="1.0" encoding="UTF-8"?> declaration.
	XMLDecl bool
	// TypeHints emits xsi:type on leaf elements and SOAP-ENC arrayType on
	// array elements, as the SOAP encoding rules require when no schema is
	// available (paper §4.2); without them a parser cannot rebuild typed
	// nodes.
	TypeHints bool
	// ArrayItemName is the tag used for each array item. It defaults to
	// "i" — the paper's Table 1 measures XML with "the shortest tag name of
	// each element in the array".
	ArrayItemName string
}

func (o EncodeOptions) itemName() string {
	if o.ArrayItemName == "" {
		return "i"
	}
	return o.ArrayItemName
}

const xmlDecl = `<?xml version="1.0" encoding="UTF-8"?>`

// Marshal serializes a bXDM tree to XML 1.0.
func Marshal(n bxdm.Node, opts EncodeOptions) ([]byte, error) {
	return AppendEncode(nil, n, opts)
}

// AppendEncode serializes a bXDM tree by appending its XML form to dst and
// returning the extended slice. This is the pooled-buffer fast path: the
// encoder writes straight into dst with no bufio layer and no flush copy.
func AppendEncode(dst []byte, n bxdm.Node, opts EncodeOptions) ([]byte, error) {
	e := getEncoder(opts)
	e.asink.buf = dst
	e.w = &e.asink
	if opts.XMLDecl {
		e.asink.buf = append(e.asink.buf, xmlDecl...)
	}
	err := bxdm.Accept(n, e)
	out := e.asink.buf
	putEncoder(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Encode serializes a bXDM tree to w. w takes every byte as the encoder
// produces it — there is no buffering layer in between — so it should
// gather small writes itself, as the streamed codec's chunk writer does.
func Encode(w sink, n bxdm.Node, opts EncodeOptions) error {
	e := getEncoder(opts)
	e.w = w
	if opts.XMLDecl {
		if _, err := w.WriteString(xmlDecl); err != nil {
			putEncoder(e)
			return err
		}
	}
	err := bxdm.Accept(n, e)
	putEncoder(e)
	return err
}

// sink is the encoder's output: the caller's writer (Encode) or the
// in-place appendSink (AppendEncode). Both are byte-granular, so the
// encoder never builds intermediate strings.
type sink interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// appendSink appends into a caller-provided buffer (typically a pooled
// payload).
type appendSink struct{ buf []byte }

func (s *appendSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func (s *appendSink) WriteByte(b byte) error {
	s.buf = append(s.buf, b)
	return nil
}

func (s *appendSink) WriteString(str string) (int, error) {
	s.buf = append(s.buf, str...)
	return len(str), nil
}

type encoder struct {
	w     sink
	opts  EncodeOptions
	scope bxdm.NSScope
	auto  int
	buf   []byte
	asink appendSink
	// record asks the visitor to note the byte span of every leaf lexical
	// and array item run in spans (template compilation only; offsets are
	// into asink.buf, so recording requires the AppendEncode path).
	record bool
	spans  []span
	// declBufs[d] backs the namespace declarations of the open element at
	// scope depth d. The element's scope frame is popped before the next
	// element at that depth reuses the buffer, so a warm encoder declares
	// namespaces without allocating.
	declBufs [][]bxdm.NamespaceDecl
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder(opts EncodeOptions) *encoder {
	e := encoderPool.Get().(*encoder)
	e.opts = opts
	e.auto = 0
	for e.scope.Depth() > 0 { // a failed earlier encode may have left frames pushed
		e.scope.Pop()
	}
	return e
}

func putEncoder(e *encoder) {
	e.w = nil
	e.asink.buf = nil
	e.record = false
	e.spans = nil
	encoderPool.Put(e)
}

func (e *encoder) EnterDocument(*bxdm.Document) error { return nil }
func (e *encoder) LeaveDocument(*bxdm.Document) error { return nil }

// effectiveDecls computes the namespace declarations to emit on an element:
// the explicit ones plus any auto-generated bindings needed so that the
// element name, every attribute name, and the type-hint namespaces resolve.
func (e *encoder) effectiveDecls(c *bxdm.ElemCommon, needHints, needArray bool) []bxdm.NamespaceDecl {
	depth := e.scope.Depth()
	for len(e.declBufs) <= depth {
		e.declBufs = append(e.declBufs, nil)
	}
	decls := append(e.declBufs[depth][:0], c.NamespaceDecls...)
	// Tentatively push so resolution sees the element's own declarations.
	e.scope.Push(decls)
	ensure := func(space, hint string, forAttr bool) {
		if space == "" || space == bxdm.XMLNamespace {
			return
		}
		if pfx, ok := e.scope.PrefixFor(space); ok && !(forAttr && pfx == "") {
			return
		}
		prefix := hint
		unusable := prefix == "" || e.prefixTaken(decls, prefix)
		if !unusable {
			// A synthesized declaration must not shadow an in-scope binding
			// of the same prefix to a different URI: an earlier-resolved
			// name on this very element may depend on it.
			if uri, bound := e.scope.URIFor(prefix); bound && uri != "" && uri != space {
				unusable = true
			}
		}
		if unusable {
			for {
				e.auto++
				prefix = "ns" + strconv.Itoa(e.auto)
				if !e.prefixTaken(decls, prefix) {
					if _, bound := e.scope.URIFor(prefix); !bound {
						break
					}
				}
			}
		}
		decls = append(decls, bxdm.NamespaceDecl{Prefix: prefix, URI: space})
		e.scope.Pop()
		e.scope.Push(decls)
	}
	ensure(c.Name.Space, c.Name.Prefix, false)
	// An element in no namespace under a bound default namespace needs an
	// xmlns="" undeclaration.
	if c.Name.Space == "" {
		if uri, ok := e.scope.URIFor(""); ok && uri != "" {
			decls = append(decls, bxdm.NamespaceDecl{Prefix: "", URI: ""})
			e.scope.Pop()
			e.scope.Push(decls)
		}
	}
	for _, a := range c.Attributes {
		ensure(a.Name.Space, a.Name.Prefix, true)
	}
	if needHints {
		ensure(XSINamespace, "xsi", true)
		ensure(XSDNamespace, "xsd", true)
	}
	if needArray {
		ensure(ENCNamespace, "enc", true)
	}
	e.scope.Pop()
	e.declBufs[depth] = decls
	return decls
}

func (e *encoder) prefixTaken(decls []bxdm.NamespaceDecl, prefix string) bool {
	for _, d := range decls {
		if d.Prefix == prefix {
			return true
		}
	}
	return false
}

// openTag writes "<qname decls attrs" without the closing '>' and pushes the
// namespace scope.
func (e *encoder) openTag(c *bxdm.ElemCommon, needHints, needArray bool) error {
	// With type hints on, declare the hint namespaces once on the outermost
	// element so nested leaf/array elements resolve them from scope instead
	// of re-declaring per element.
	if e.opts.TypeHints && e.scope.Depth() == 0 {
		needHints = true
		needArray = true
	}
	decls := e.effectiveDecls(c, needHints, needArray)
	e.scope.Push(decls)
	e.w.WriteByte('<')
	if err := e.writeQName(c.Name, false); err != nil {
		return err
	}
	for _, d := range decls {
		if d.Prefix == "" {
			e.w.WriteString(` xmlns="`)
		} else {
			e.w.WriteString(` xmlns:`)
			e.w.WriteString(d.Prefix)
			e.w.WriteString(`="`)
		}
		e.escapeAttr(d.URI)
		e.w.WriteByte('"')
	}
	for _, a := range c.Attributes {
		if err := e.writeAttr(a); err != nil {
			return err
		}
	}
	return nil
}

var (
	xsiType      = bxdm.PName(XSINamespace, "xsi", "type")
	encArrayType = bxdm.PName(ENCNamespace, "enc", "arrayType")
)

// writeHint writes the type-hint attribute ` name="xsd:T"`, or
// ` name="xsd:T[n]"` when n >= 0, straight into the output. Type names
// never need escaping.
func (e *encoder) writeHint(name bxdm.QName, typ bxdm.TypeCode, n int) error {
	e.w.WriteByte(' ')
	if err := e.writeQName(name, true); err != nil {
		return err
	}
	e.w.WriteString(`="xsd:`)
	e.w.WriteString(typ.String())
	if n >= 0 {
		e.w.WriteByte('[')
		e.buf = strconv.AppendInt(e.buf[:0], int64(n), 10)
		e.w.Write(e.buf)
		e.w.WriteByte(']')
	}
	e.w.WriteByte('"')
	return nil
}

func (e *encoder) writeAttr(a bxdm.Attribute) error {
	e.w.WriteByte(' ')
	if err := e.writeQName(a.Name, true); err != nil {
		return err
	}
	e.w.WriteString(`="`)
	e.buf = a.Value.AppendLexical(e.buf[:0])
	e.escapeAttr(string(e.buf))
	e.w.WriteByte('"')
	return nil
}

func (e *encoder) writeQName(q bxdm.QName, attr bool) error {
	if q.Space != "" {
		pfx, ok := e.scope.PrefixFor(q.Space)
		if !ok || (attr && pfx == "") {
			return fmt.Errorf("xmltext: namespace %q not in scope for %s", q.Space, q.Local)
		}
		if pfx != "" {
			e.w.WriteString(pfx)
			e.w.WriteByte(':')
		}
	}
	e.w.WriteString(q.Local)
	return nil
}

func (e *encoder) closeTag(name bxdm.QName) error {
	e.w.WriteString("</")
	if err := e.writeQName(name, false); err != nil {
		return err
	}
	e.w.WriteByte('>')
	e.scope.Pop()
	return nil
}

func (e *encoder) EnterElement(el *bxdm.Element) error {
	if err := e.openTag(&el.ElemCommon, false, false); err != nil {
		return err
	}
	e.w.WriteByte('>')
	return nil
}

func (e *encoder) LeaveElement(el *bxdm.Element) error {
	return e.closeTag(el.Name)
}

func (e *encoder) VisitLeaf(l *bxdm.LeafElement) error {
	hints := e.opts.TypeHints
	if err := e.openTag(&l.ElemCommon, hints, false); err != nil {
		return err
	}
	if hints {
		if err := e.writeHint(xsiType, l.Value.Type(), -1); err != nil {
			return err
		}
	}
	e.w.WriteByte('>')
	start := len(e.asink.buf)
	e.buf = l.Value.AppendLexical(e.buf[:0])
	e.escapeText(e.buf)
	if e.record {
		e.spans = append(e.spans, span{
			start: start, end: len(e.asink.buf),
			kind: bxdm.KindLeafElement, code: l.Value.Type(),
		})
	}
	return e.closeTag(l.Name)
}

func (e *encoder) VisitArray(a *bxdm.ArrayElement) error {
	hints := e.opts.TypeHints
	if err := e.openTag(&a.ElemCommon, hints, hints); err != nil {
		return err
	}
	if hints {
		if err := e.writeHint(encArrayType, a.Data.Type(), a.Data.Len()); err != nil {
			return err
		}
	}
	e.w.WriteByte('>')
	start := len(e.asink.buf)
	// Each item becomes <i>lexical</i> — the open/close tag pair per element
	// whose cost Table 1 quantifies.
	item := e.opts.itemName()
	n := a.Data.Len()
	for i := 0; i < n; i++ {
		e.w.WriteByte('<')
		e.w.WriteString(item)
		e.w.WriteByte('>')
		e.buf = a.Data.AppendLexical(e.buf[:0], i)
		e.w.Write(e.buf) // numeric lexical forms never need escaping
		e.w.WriteString("</")
		e.w.WriteString(item)
		e.w.WriteByte('>')
	}
	if e.record {
		e.spans = append(e.spans, span{
			start: start, end: len(e.asink.buf),
			kind: bxdm.KindArrayElement, code: a.Data.Type(), count: n,
		})
	}
	return e.closeTag(a.Name)
}

func (e *encoder) VisitText(t *bxdm.Text) error {
	escapeTextTo(e.w, t.Data)
	return nil
}

func (e *encoder) VisitComment(c *bxdm.Comment) error {
	if strings.Contains(c.Data, "--") {
		return fmt.Errorf("xmltext: comment contains --")
	}
	e.w.WriteString("<!--")
	e.w.WriteString(c.Data)
	e.w.WriteString("-->")
	return nil
}

func (e *encoder) VisitPI(p *bxdm.PI) error {
	if strings.Contains(p.Data, "?>") {
		return fmt.Errorf("xmltext: PI data contains ?>")
	}
	e.w.WriteString("<?")
	e.w.WriteString(p.Target)
	if p.Data != "" {
		e.w.WriteByte(' ')
		e.w.WriteString(p.Data)
	}
	e.w.WriteString("?>")
	return nil
}

func (e *encoder) escapeText(s []byte) { escapeTextTo(e.w, s) }

// escapeTextTo works on string and []byte alike, so callers holding either
// form never pay a conversion copy.
func escapeTextTo[S ~string | ~[]byte](w sink, s S) {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; b {
		case '&':
			w.WriteString("&amp;")
		case '<':
			w.WriteString("&lt;")
		case '>':
			w.WriteString("&gt;")
		case '\r':
			w.WriteString("&#13;")
		default:
			w.WriteByte(b)
		}
	}
}

func (e *encoder) escapeAttr(s string) {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; b {
		case '&':
			e.w.WriteString("&amp;")
		case '<':
			e.w.WriteString("&lt;")
		case '"':
			e.w.WriteString("&quot;")
		case '\t':
			e.w.WriteString("&#9;")
		case '\n':
			e.w.WriteString("&#10;")
		case '\r':
			e.w.WriteString("&#13;")
		default:
			e.w.WriteByte(b)
		}
	}
}
