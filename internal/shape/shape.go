// Package shape fingerprints SOAP envelope *shapes* — everything about an
// envelope except its variable leaf and array values — and rebuilds decoded
// envelopes from a prototype tree plus those values.
//
// Production SOAP traffic is a handful of message shapes repeated millions
// of times (the paper's TerraService regime), so the codec stack keys a
// template cache by shape: two envelopes with the same Key serialize to
// byte streams that differ only inside fixed, pre-computed windows. The
// fingerprint therefore covers node kinds, qualified names (including
// prefixes), namespace declarations, attribute names and their full typed
// values, text/comment/PI content, leaf type codes, the *lengths* of string
// leaves, and array item types and counts. What it deliberately leaves out
// — numeric leaf bits, bool values, string leaf bytes, array items — become
// the ordered variable slots of the shape.
package shape

import (
	"errors"
	"fmt"

	"bxsoap/internal/bxdm"
)

// Key is a 128-bit shape fingerprint. Two independent multiplicative
// accumulators keep the collision probability for a bounded cache of
// well-behaved traffic negligible (~2^-128 per pair); the cache design
// accepts that residual risk and DESIGN.md documents it.
type Key struct {
	Hi, Lo uint64
}

// Var is one variable slot of a shape, in document pre-order: a leaf
// element's value (Data nil) or an array element's packed items.
type Var struct {
	Value bxdm.Value
	Data  bxdm.ArrayData
}

const (
	seedHi = 14695981039346656037 // FNV-64 offset basis
	seedLo = 0x2545f4914f6cdd1d
	mulHi  = 1099511628211 // FNV-64 prime
	mulLo  = 0x9e3779b97f4a7c15
)

type hasher struct {
	hi, lo uint64
}

func (h *hasher) byte(b byte) {
	h.hi = (h.hi ^ uint64(b)) * mulHi
	h.lo = (h.lo ^ uint64(b)) * mulLo
}

func (h *hasher) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(v >> i))
	}
}

// str hashes a length-prefixed string so concatenations can't alias.
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *hasher) qname(n bxdm.QName) {
	h.str(n.Space)
	h.str(n.Prefix)
	h.str(n.Local)
}

func (h *hasher) common(c *bxdm.ElemCommon) {
	h.qname(c.Name)
	h.u64(uint64(len(c.NamespaceDecls)))
	for _, d := range c.NamespaceDecls {
		h.str(d.Prefix)
		h.str(d.URI)
	}
	h.u64(uint64(len(c.Attributes)))
	for _, a := range c.Attributes {
		h.qname(a.Name)
		// Attribute values are static: the full typed value is part of
		// the shape, so templates may bake the rendered attribute in.
		h.byte(byte(a.Value.Type()))
		h.u64(a.Value.Bits())
		h.str(a.Value.Text())
	}
}

// Fingerprint hashes the shape of an envelope's header entries and body
// children and appends the variable slot values to *vars in pre-order.
// It reports ok=false for trees the codec templates cannot represent
// (unknown node kinds, invalid leaf or array types, nil array data);
// callers fall back to the generic path for those.
func Fingerprint(header, body []bxdm.Node, vars *[]Var) (Key, bool) {
	h := hasher{hi: seedHi, lo: seedLo}
	h.u64(uint64(len(header)))
	if !hashNodes(&h, header, vars) {
		return Key{}, false
	}
	h.u64(uint64(len(body)))
	if !hashNodes(&h, body, vars) {
		return Key{}, false
	}
	return Key{Hi: h.hi, Lo: h.lo}, true
}

func hashNodes(h *hasher, nodes []bxdm.Node, vars *[]Var) bool {
	for _, n := range nodes {
		if !hashNode(h, n, vars) {
			return false
		}
	}
	return true
}

func hashNode(h *hasher, n bxdm.Node, vars *[]Var) bool {
	switch x := n.(type) {
	case *bxdm.Element:
		h.byte(byte(bxdm.KindElement))
		h.common(&x.ElemCommon)
		h.u64(uint64(len(x.Children)))
		return hashNodes(h, x.Children, vars)
	case *bxdm.LeafElement:
		code := x.Value.Type()
		if code == bxdm.TInvalid {
			return false
		}
		h.byte(byte(bxdm.KindLeafElement))
		h.common(&x.ElemCommon)
		h.byte(byte(code))
		if code == bxdm.TString {
			// String windows are fixed-width inside a shape: the
			// byte length is part of the key, only the bytes vary.
			h.u64(uint64(len(x.Value.Text())))
		}
		if vars != nil {
			*vars = append(*vars, Var{Value: x.Value})
		}
		return true
	case *bxdm.ArrayElement:
		if x.Data == nil {
			return false
		}
		code := x.Data.Type()
		if code == bxdm.TInvalid || code == bxdm.TString || code.Size() <= 0 {
			return false
		}
		h.byte(byte(bxdm.KindArrayElement))
		h.common(&x.ElemCommon)
		h.byte(byte(code))
		h.u64(uint64(x.Data.Len()))
		if vars != nil {
			*vars = append(*vars, Var{Data: x.Data})
		}
		return true
	case *bxdm.Text:
		h.byte(byte(bxdm.KindText))
		h.str(x.Data)
		return true
	case *bxdm.Comment:
		h.byte(byte(bxdm.KindComment))
		h.str(x.Data)
		return true
	case *bxdm.PI:
		h.byte(byte(bxdm.KindPI))
		h.str(x.Target)
		h.str(x.Data)
		return true
	default:
		return false
	}
}

// Proto is a decoded prototype of one shape: the full tree of a previously
// decoded envelope with per-kind node counts, from which Instantiate clones
// fresh envelopes in a handful of arena allocations, splicing in the
// variable values a template matcher extracted from the wire.
//
// The Proto takes ownership of the trees passed to NewProto; callers must
// not mutate them afterwards. Instantiated trees share the proto's strings
// (immutable) but never its attribute or namespace-declaration backing
// arrays, which bxdm mutates in place via SetAttr/DeclareNamespace.
type Proto struct {
	header, body []bxdm.Node
	n            counts
}

type counts struct {
	elems, leaves, arrays  int
	texts, comments, pis   int
	children, attrs, decls int
	slots                  int
}

// NewProto builds a prototype from a decoded envelope's header entries and
// body children. It returns an error for trees Fingerprint would reject.
func NewProto(header, body []bxdm.Node) (*Proto, error) {
	p := &Proto{header: header, body: body}
	if err := p.count(header); err != nil {
		return nil, err
	}
	if err := p.count(body); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Proto) count(nodes []bxdm.Node) error {
	p.n.children += len(nodes)
	for _, n := range nodes {
		switch x := n.(type) {
		case *bxdm.Element:
			p.n.elems++
			p.n.attrs += len(x.Attributes)
			p.n.decls += len(x.NamespaceDecls)
			if err := p.count(x.Children); err != nil {
				return err
			}
		case *bxdm.LeafElement:
			if x.Value.Type() == bxdm.TInvalid {
				return errors.New("shape: invalid leaf value in prototype")
			}
			p.n.leaves++
			p.n.attrs += len(x.Attributes)
			p.n.decls += len(x.NamespaceDecls)
			p.n.slots++
		case *bxdm.ArrayElement:
			if x.Data == nil {
				return errors.New("shape: nil array data in prototype")
			}
			p.n.arrays++
			p.n.attrs += len(x.Attributes)
			p.n.decls += len(x.NamespaceDecls)
			p.n.slots++
		case *bxdm.Text:
			p.n.texts++
		case *bxdm.Comment:
			p.n.comments++
		case *bxdm.PI:
			p.n.pis++
		default:
			return fmt.Errorf("shape: unsupported node kind %v in prototype", n.Kind())
		}
	}
	return nil
}

// arena pre-allocates every node of one instantiation in a few contiguous
// blocks so a templated decode costs O(node kinds) allocations, not
// O(nodes).
type arena struct {
	elems    []bxdm.Element
	leaves   []bxdm.LeafElement
	arrays   []bxdm.ArrayElement
	texts    []bxdm.Text
	comments []bxdm.Comment
	pis      []bxdm.PI
	children []bxdm.Node
	attrs    []bxdm.Attribute
	decls    []bxdm.NamespaceDecl
	vars     []Var
	slot     int
}

// Instantiate clones the prototype with the slot values from vars spliced
// in, returning fresh header and body node slices. vars must hold exactly
// Slots() entries whose types match the prototype's slots (as produced by a
// template matcher for the same shape).
func (p *Proto) Instantiate(vars []Var) (header, body []bxdm.Node, err error) {
	if len(vars) != p.n.slots {
		return nil, nil, fmt.Errorf("shape: instantiate got %d vars, want %d", len(vars), p.n.slots)
	}
	a := arena{vars: vars}
	if p.n.elems > 0 {
		a.elems = make([]bxdm.Element, p.n.elems)
	}
	if p.n.leaves > 0 {
		a.leaves = make([]bxdm.LeafElement, p.n.leaves)
	}
	if p.n.arrays > 0 {
		a.arrays = make([]bxdm.ArrayElement, p.n.arrays)
	}
	if p.n.texts > 0 {
		a.texts = make([]bxdm.Text, p.n.texts)
	}
	if p.n.comments > 0 {
		a.comments = make([]bxdm.Comment, p.n.comments)
	}
	if p.n.pis > 0 {
		a.pis = make([]bxdm.PI, p.n.pis)
	}
	if p.n.children > 0 {
		a.children = make([]bxdm.Node, p.n.children)
	}
	if p.n.attrs > 0 {
		a.attrs = make([]bxdm.Attribute, p.n.attrs)
	}
	if p.n.decls > 0 {
		a.decls = make([]bxdm.NamespaceDecl, p.n.decls)
	}
	header, err = a.cloneNodes(p.header)
	if err != nil {
		return nil, nil, err
	}
	body, err = a.cloneNodes(p.body)
	if err != nil {
		return nil, nil, err
	}
	return header, body, nil
}

func (a *arena) takeChildren(n int) []bxdm.Node {
	s := a.children[:n:n]
	a.children = a.children[n:]
	return s
}

// cloneCommon copies c into dst with fresh attribute and declaration
// backing, since bxdm mutates those slices in place.
func (a *arena) cloneCommon(dst, src *bxdm.ElemCommon) {
	dst.Name = src.Name
	if len(src.NamespaceDecls) > 0 {
		d := a.decls[:len(src.NamespaceDecls):len(src.NamespaceDecls)]
		a.decls = a.decls[len(src.NamespaceDecls):]
		copy(d, src.NamespaceDecls)
		dst.NamespaceDecls = d
	} else {
		dst.NamespaceDecls = nil
	}
	if len(src.Attributes) > 0 {
		at := a.attrs[:len(src.Attributes):len(src.Attributes)]
		a.attrs = a.attrs[len(src.Attributes):]
		copy(at, src.Attributes)
		dst.Attributes = at
	} else {
		dst.Attributes = nil
	}
}

func (a *arena) cloneNodes(src []bxdm.Node) ([]bxdm.Node, error) {
	out := a.takeChildren(len(src))
	for i, n := range src {
		c, err := a.cloneNode(n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (a *arena) cloneNode(n bxdm.Node) (bxdm.Node, error) {
	switch x := n.(type) {
	case *bxdm.Element:
		e := &a.elems[0]
		a.elems = a.elems[1:]
		a.cloneCommon(&e.ElemCommon, &x.ElemCommon)
		kids, err := a.cloneNodes(x.Children)
		if err != nil {
			return nil, err
		}
		e.Children = kids
		return e, nil
	case *bxdm.LeafElement:
		l := &a.leaves[0]
		a.leaves = a.leaves[1:]
		a.cloneCommon(&l.ElemCommon, &x.ElemCommon)
		v := a.vars[a.slot]
		a.slot++
		if v.Data != nil || v.Value.Type() != x.Value.Type() {
			return nil, fmt.Errorf("shape: slot %d: leaf %v fill mismatch", a.slot-1, x.Value.Type())
		}
		l.Value = v.Value
		return l, nil
	case *bxdm.ArrayElement:
		e := &a.arrays[0]
		a.arrays = a.arrays[1:]
		a.cloneCommon(&e.ElemCommon, &x.ElemCommon)
		v := a.vars[a.slot]
		a.slot++
		if v.Data == nil || v.Data.Type() != x.Data.Type() || v.Data.Len() != x.Data.Len() {
			return nil, fmt.Errorf("shape: slot %d: array %v fill mismatch", a.slot-1, x.Data.Type())
		}
		e.Data = v.Data
		return e, nil
	case *bxdm.Text:
		t := &a.texts[0]
		a.texts = a.texts[1:]
		t.Data = x.Data
		return t, nil
	case *bxdm.Comment:
		c := &a.comments[0]
		a.comments = a.comments[1:]
		c.Data = x.Data
		return c, nil
	case *bxdm.PI:
		pi := &a.pis[0]
		a.pis = a.pis[1:]
		pi.Target, pi.Data = x.Target, x.Data
		return pi, nil
	default:
		return nil, fmt.Errorf("shape: unsupported node kind %v", n.Kind())
	}
}
