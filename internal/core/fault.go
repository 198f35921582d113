package core

import (
	"fmt"

	"bxsoap/internal/bxdm"
)

// Standard SOAP 1.1 fault codes.
const (
	FaultMustUnderstand = "MustUnderstand"
	FaultClient         = "Client"
	FaultServer         = "Server"
)

// Fault is a SOAP fault.
type Fault struct {
	Code   string // local part; serialized as soap:<Code>
	String string // human-readable explanation
	Actor  string // optional URI of the faulting node
	Detail bxdm.Node
}

// Error implements the error interface so faults can flow through Go error
// paths; Engine.Call returns a *Fault as the error when the peer faults.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

var faultName = bxdm.PName(EnvelopeNS, "soap", "Fault")

// Envelope wraps the fault into a response envelope.
func (f *Fault) Envelope() *Envelope {
	fe := bxdm.NewElement(faultName)
	// Per SOAP 1.1 the faultcode value is a QName in the envelope namespace
	// for standard codes; the subelements themselves are unqualified.
	fe.Append(bxdm.NewLeaf(bxdm.LocalName("faultcode"), "soap:"+f.Code))
	fe.Append(bxdm.NewLeaf(bxdm.LocalName("faultstring"), f.String))
	if f.Actor != "" {
		fe.Append(bxdm.NewLeaf(bxdm.LocalName("faultactor"), f.Actor))
	}
	if f.Detail != nil {
		fe.Append(bxdm.NewElement(bxdm.LocalName("detail"), f.Detail))
	}
	return NewEnvelope(fe)
}

// FaultFromEnvelope extracts a fault from a response envelope, returning
// nil when the body is not a fault.
func FaultFromEnvelope(e *Envelope) *Fault {
	body := e.Body()
	if body == nil || !body.ElemName().Matches(faultName) {
		return nil
	}
	el, ok := body.(*bxdm.Element)
	if !ok {
		return nil
	}
	f := &Fault{}
	for _, c := range el.Children {
		ce, ok := c.(bxdm.ElementNode)
		if !ok {
			continue
		}
		text := nodeText(c)
		switch ce.ElemName().Local {
		case "faultcode":
			// Strip any prefix; standard codes are compared by local part.
			if i := lastIndexByte(text, ':'); i >= 0 {
				text = text[i+1:]
			}
			f.Code = text
		case "faultstring":
			f.String = text
		case "faultactor":
			f.Actor = text
		case "detail":
			if de, ok := c.(*bxdm.Element); ok && len(de.Children) > 0 {
				f.Detail = de.Children[0]
			}
		}
	}
	return f
}

func nodeText(n bxdm.Node) string {
	switch x := n.(type) {
	case *bxdm.LeafElement:
		return x.Value.Text()
	case *bxdm.Element:
		return x.TextContent()
	default:
		return ""
	}
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}
