package xmltext

// Schema-compiled encode/decode templates for the textual encoding. Unlike
// BXSA, XML value lexicals are variable-width (escaping, number formatting),
// so a shape's template is not a fixed-window skeleton but an alternation
// of static byte segments — tags, namespace declarations, attributes, type
// hints — with re-rendered slots between them. That still removes the whole
// generic tree walk, namespace resolution, and per-node layout work from
// the hot path, which is where textual encode spends most of its time
// (paper Table 1); the goal is pulling templated XML encode toward BXSA
// speed. Decoding is a strict segment scan: anything the scan cannot prove
// byte-identical to what the generic parser would produce (entities,
// carriage returns, whitespace-only strings) is a clean no-match and falls
// back to the generic parser.

import (
	"bytes"
	"errors"
	"fmt"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/shape"
)

// span is a recorded variable region of an encoded document.
type span struct {
	start, end int
	kind       bxdm.Kind
	code       bxdm.TypeCode
	count      int // array item count (KindArrayElement only)
}

// slot is one variable position of a compiled template.
type slot struct {
	kind  bxdm.Kind
	code  bxdm.TypeCode
	count int
}

// Template is a compiled encode/decode plan for one message shape. It is
// immutable after compilation and safe for concurrent use.
type Template struct {
	opts      EncodeOptions
	segs      [][]byte // len(slots)+1 static segments
	slots     []slot
	itemOpen  []byte // "<i>"
	itemClose []byte // "</i>"
}

// CompileTemplate compiles a template from a representative document by
// re-running the generic encoder with span recording on. Type hints are
// required: without xsi:type/arrayType the parser cannot rebuild typed
// trees, so no shape-keyed decode plan exists (PlainStrings encodings
// simply keep the generic path).
func CompileTemplate(doc *bxdm.Document, opts EncodeOptions) (*Template, error) {
	if !opts.TypeHints {
		return nil, errors.New("xmltext: templates require type hints")
	}
	e := getEncoder(opts)
	e.asink.buf = make([]byte, 0, 256)
	e.w = &e.asink
	e.record = true
	if opts.XMLDecl {
		e.asink.buf = append(e.asink.buf, xmlDecl...)
	}
	err := bxdm.Accept(doc, e)
	encoded, spans := e.asink.buf, e.spans
	e.spans = nil // keep the recorded slice out of the pool's reuse
	putEncoder(e)
	if err != nil {
		return nil, err
	}
	t := &Template{
		opts:      opts,
		segs:      make([][]byte, 0, len(spans)+1),
		slots:     make([]slot, 0, len(spans)),
		itemOpen:  []byte("<" + opts.itemName() + ">"),
		itemClose: []byte("</" + opts.itemName() + ">"),
	}
	pos := 0
	for i, s := range spans {
		if s.start < pos || s.end < s.start || s.end > len(encoded) {
			return nil, fmt.Errorf("xmltext: template span %d [%d:%d) out of order", i, s.start, s.end)
		}
		t.segs = append(t.segs, encoded[pos:s.start])
		t.slots = append(t.slots, slot{kind: s.kind, code: s.code, count: s.count})
		pos = s.end
	}
	t.segs = append(t.segs, encoded[pos:])
	return t, nil
}

// AppendEncode appends an encoding of the shape with the given variable
// values to dst and returns the extended slice, byte-identical to what the
// generic encoder produces for the corresponding tree. vars must line up
// with the template's slots (as guaranteed for envelopes whose
// shape.Fingerprint matched); mismatches are errors and the caller falls
// back to the generic encoder.
func (t *Template) AppendEncode(dst []byte, vars []shape.Var) ([]byte, error) {
	if len(vars) != len(t.slots) {
		return nil, fmt.Errorf("xmltext: template got %d vars, want %d", len(vars), len(t.slots))
	}
	out := append(dst, t.segs[0]...)
	for i := range t.slots {
		s := &t.slots[i]
		v := &vars[i]
		switch s.kind {
		case bxdm.KindLeafElement:
			if v.Data != nil || v.Value.Type() != s.code {
				return nil, fmt.Errorf("xmltext: template slot %d: leaf type mismatch", i)
			}
			if s.code == bxdm.TString {
				out = appendEscapedText(out, v.Value.Text())
			} else {
				// Numeric and bool lexicals never contain characters
				// that need escaping.
				out = v.Value.AppendLexical(out)
			}
		case bxdm.KindArrayElement:
			if v.Data == nil || v.Data.Type() != s.code || v.Data.Len() != s.count {
				return nil, fmt.Errorf("xmltext: template slot %d: array mismatch", i)
			}
			for j := 0; j < s.count; j++ {
				out = append(out, t.itemOpen...)
				out = v.Data.AppendLexical(out, j)
				out = append(out, t.itemClose...)
			}
		}
		out = append(out, t.segs[i+1]...)
	}
	return out, nil
}

// Match reports whether data is an encoding of this template's shape and,
// if so, appends the decoded variable values to *vars in slot order. The
// scan is deliberately conservative: it only matches byte sequences whose
// generic parse it can reproduce exactly, so a false return means "use the
// generic parser", never a wrong tree.
func (t *Template) Match(data []byte, vars *[]shape.Var) bool {
	mark := len(*vars)
	fail := func() bool {
		*vars = (*vars)[:mark]
		return false
	}
	pos := 0
	for i := range t.slots {
		seg := t.segs[i]
		if len(data)-pos < len(seg) || !bytes.Equal(data[pos:pos+len(seg)], seg) {
			return fail()
		}
		pos += len(seg)
		s := &t.slots[i]
		switch s.kind {
		case bxdm.KindLeafElement:
			end := pos
			for end < len(data) && data[end] != '<' {
				// Entity references and carriage returns are normalized
				// by the generic parser; bail out rather than replicate.
				if data[end] == '&' || data[end] == '\r' {
					return fail()
				}
				end++
			}
			w := data[pos:end]
			if s.code == bxdm.TString {
				// A whitespace-only text node may be dropped by the
				// parser's inter-element whitespace rule; don't guess.
				if len(w) > 0 && isAllWS(w) {
					return fail()
				}
				*vars = append(*vars, shape.Var{Value: bxdm.StringValue(string(w))})
			} else {
				v, err := bxdm.ParseValue(s.code, string(w))
				if err != nil {
					return fail()
				}
				*vars = append(*vars, shape.Var{Value: v})
			}
			pos = end
		case bxdm.KindArrayElement:
			b, err := bxdm.NewArrayBuilder(s.code)
			if err != nil {
				return fail()
			}
			for j := 0; j < s.count; j++ {
				if !hasPrefix(data, pos, t.itemOpen) {
					return fail()
				}
				pos += len(t.itemOpen)
				end := pos
				for end < len(data) && data[end] != '<' {
					if data[end] == '&' || data[end] == '\r' {
						return fail()
					}
					end++
				}
				// The generic fast-array path trims each item before
				// parsing; mirror it.
				if err := b.AppendLexicalBytes(bytes.TrimSpace(data[pos:end])); err != nil {
					return fail()
				}
				pos = end
				if !hasPrefix(data, pos, t.itemClose) {
					return fail()
				}
				pos += len(t.itemClose)
			}
			*vars = append(*vars, shape.Var{Data: b.Data()})
		}
	}
	last := t.segs[len(t.segs)-1]
	if len(data)-pos != len(last) || !bytes.Equal(data[pos:], last) {
		return fail()
	}
	return true
}

func hasPrefix(data []byte, pos int, p []byte) bool {
	return len(data)-pos >= len(p) && bytes.Equal(data[pos:pos+len(p)], p)
}

// appendEscapedText is escapeTextTo for an append destination, kept
// byte-identical to the generic encoder's text escaping.
func appendEscapedText(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch b := s[i]; b {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '\r':
			dst = append(dst, "&#13;"...)
		default:
			dst = append(dst, b)
		}
	}
	return dst
}
