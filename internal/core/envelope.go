// Package core implements the paper's generic SOAP engine (§5): the SOAP
// envelope modeled in bXDM, the Encoding and Binding policy concepts, and
// the compile-time-composed Engine[E, B] / Server[E, B] that bind a
// concrete encoding (textual XML 1.0 or BXSA) to a concrete transport
// (HTTP or raw TCP). Go generics play the role of the paper's C++ policy
// templates: the policies are type parameters, the composition is
// monomorphized at compile time, and adding a policy axis (e.g. security)
// means adding a type parameter or wrapping a policy — see wssec.Secured.
package core

import (
	"fmt"

	"bxsoap/internal/bxdm"
)

// SOAP 1.1 protocol constants.
const (
	EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

	// attrMustUnderstand marks a header entry that the receiving node must
	// process or fault.
	attrMustUnderstand = "mustUnderstand"
)

var (
	envelopeName = bxdm.PName(EnvelopeNS, "soap", "Envelope")
	headerName   = bxdm.PName(EnvelopeNS, "soap", "Header")
	bodyName     = bxdm.PName(EnvelopeNS, "soap", "Body")
)

// Envelope is a SOAP message held in the bXDM model. The engine constructs
// the soap:Envelope/Header/Body scaffolding at encode time; applications
// deal only in header entries and body children.
type Envelope struct {
	// HeaderEntries are the children of soap:Header (omitted when empty).
	HeaderEntries []bxdm.Node
	// BodyChildren are the children of soap:Body.
	BodyChildren []bxdm.Node
}

// NewEnvelope builds an envelope with the given body children.
func NewEnvelope(body ...bxdm.Node) *Envelope {
	return &Envelope{BodyChildren: body}
}

// AddHeader appends a header entry and returns the envelope for chaining.
func (e *Envelope) AddHeader(h bxdm.Node) *Envelope {
	e.HeaderEntries = append(e.HeaderEntries, h)
	return e
}

// Body returns the first body child element, which for RPC-style messages
// is the operation wrapper. It is nil for an empty body.
func (e *Envelope) Body() bxdm.ElementNode {
	for _, c := range e.BodyChildren {
		if el, ok := c.(bxdm.ElementNode); ok {
			return el
		}
	}
	return nil
}

// OpName returns the message's operation name — the local name of the
// first body child element, which for RPC-style messages is the operation
// wrapper. Empty for a nil envelope or an empty body. It is the operation
// label the dimensional metrics and SLO engine key on.
func OpName(e *Envelope) string {
	if e == nil {
		return ""
	}
	if b := e.Body(); b != nil {
		return b.ElemName().Local
	}
	return ""
}

// Header returns the first header entry matching name, or nil.
func (e *Envelope) Header(name bxdm.QName) bxdm.ElementNode {
	for _, h := range e.HeaderEntries {
		if el, ok := h.(bxdm.ElementNode); ok && el.ElemName().Matches(name) {
			return el
		}
	}
	return nil
}

// mustUnderstand reports whether a header entry carries
// soap:mustUnderstand="1".
func mustUnderstand(h bxdm.ElementNode) bool {
	v, ok := h.Attr(bxdm.Name(EnvelopeNS, attrMustUnderstand))
	return ok && (v.Text() == "1" || v.Text() == "true")
}

// Document assembles the full soap:Envelope bXDM document for encoding.
func (e *Envelope) Document() *bxdm.Document {
	env := bxdm.NewElement(envelopeName)
	env.DeclareNamespace("soap", EnvelopeNS)
	if len(e.HeaderEntries) > 0 {
		env.Append(bxdm.NewElement(headerName, e.HeaderEntries...))
	}
	env.Append(bxdm.NewElement(bodyName, e.BodyChildren...))
	return bxdm.NewDocument(env)
}

// EnvelopeFromDocument validates and dismantles a decoded soap:Envelope.
func EnvelopeFromDocument(doc *bxdm.Document) (*Envelope, error) {
	root := doc.Root()
	if root == nil {
		return nil, fmt.Errorf("soap: document has no root element")
	}
	if !root.ElemName().Matches(envelopeName) {
		return nil, fmt.Errorf("soap: root element is %v, want soap:Envelope", root.ElemName())
	}
	envEl, ok := root.(*bxdm.Element)
	if !ok {
		return nil, fmt.Errorf("soap: Envelope must be a component element")
	}
	env := &Envelope{}
	seenBody := false
	for _, c := range envEl.Children {
		el, ok := c.(bxdm.ElementNode)
		if !ok {
			// Whitespace or comments between envelope children are legal.
			continue
		}
		switch {
		case el.ElemName().Matches(headerName):
			if seenBody {
				return nil, fmt.Errorf("soap: Header after Body")
			}
			he, ok := el.(*bxdm.Element)
			if !ok {
				return nil, fmt.Errorf("soap: Header must be a component element")
			}
			for _, h := range he.Children {
				if _, isEl := h.(bxdm.ElementNode); isEl {
					env.HeaderEntries = append(env.HeaderEntries, h)
				}
			}
		case el.ElemName().Matches(bodyName):
			seenBody = true
			be, ok := el.(*bxdm.Element)
			if !ok {
				return nil, fmt.Errorf("soap: Body must be a component element")
			}
			env.BodyChildren = append(env.BodyChildren, be.Children...)
		default:
			return nil, fmt.Errorf("soap: unexpected envelope child %v", el.ElemName())
		}
	}
	if !seenBody {
		return nil, fmt.Errorf("soap: envelope has no Body")
	}
	return env, nil
}

// Clone deep-copies the envelope.
func (e *Envelope) Clone() *Envelope {
	out := &Envelope{}
	for _, h := range e.HeaderEntries {
		out.HeaderEntries = append(out.HeaderEntries, bxdm.Clone(h))
	}
	for _, b := range e.BodyChildren {
		out.BodyChildren = append(out.BodyChildren, bxdm.Clone(b))
	}
	return out
}

// Equal reports deep equality of two envelopes.
func (e *Envelope) Equal(o *Envelope) bool {
	if len(e.HeaderEntries) != len(o.HeaderEntries) || len(e.BodyChildren) != len(o.BodyChildren) {
		return false
	}
	for i := range e.HeaderEntries {
		if !bxdm.Equal(e.HeaderEntries[i], o.HeaderEntries[i]) {
			return false
		}
	}
	for i := range e.BodyChildren {
		if !bxdm.Equal(e.BodyChildren[i], o.BodyChildren[i]) {
			return false
		}
	}
	return true
}
