package core

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/obs"
	"bxsoap/internal/xbs"
)

func sampleEnvelope() *Envelope {
	req := bxdm.NewElement(bxdm.PName("urn:svc", "s", "verify"))
	req.DeclareNamespace("s", "urn:svc")
	req.Append(
		bxdm.NewArray(bxdm.Name("urn:svc", "index"), []int32{1, 2, 3}),
		bxdm.NewArray(bxdm.Name("urn:svc", "vals"), []float64{0.5, 1.5, 2.5}),
	)
	return NewEnvelope(req)
}

func TestEnvelopeDocumentStructure(t *testing.T) {
	env := sampleEnvelope()
	env.AddHeader(bxdm.NewLeaf(bxdm.Name("urn:h", "txid"), int64(99)))
	doc := env.Document()
	root := doc.Root()
	if !root.ElemName().Matches(bxdm.Name(EnvelopeNS, "Envelope")) {
		t.Fatalf("root = %v", root.ElemName())
	}
	el := root.(*bxdm.Element)
	if len(el.Children) != 2 {
		t.Fatalf("envelope children = %d, want Header+Body", len(el.Children))
	}
	if !el.ChildElements()[0].ElemName().Matches(bxdm.Name(EnvelopeNS, "Header")) {
		t.Error("first child not Header")
	}
	if !el.ChildElements()[1].ElemName().Matches(bxdm.Name(EnvelopeNS, "Body")) {
		t.Error("second child not Body")
	}
}

func TestEnvelopeRoundTripDocument(t *testing.T) {
	env := sampleEnvelope()
	env.AddHeader(bxdm.NewLeaf(bxdm.Name("urn:h", "txid"), int64(99)))
	back, err := EnvelopeFromDocument(env.Document())
	if err != nil {
		t.Fatal(err)
	}
	if !env.Equal(back) {
		t.Error("envelope changed through Document/FromDocument")
	}
}

func TestEnvelopeFromDocumentErrors(t *testing.T) {
	// Wrong root element.
	bad := bxdm.NewDocument(bxdm.NewElement(bxdm.LocalName("nope")))
	if _, err := EnvelopeFromDocument(bad); err == nil {
		t.Error("non-envelope root accepted")
	}
	// Envelope without body.
	env := bxdm.NewElement(envelopeName)
	if _, err := EnvelopeFromDocument(bxdm.NewDocument(env)); err == nil {
		t.Error("missing Body accepted")
	}
	// Unexpected child.
	env2 := bxdm.NewElement(envelopeName,
		bxdm.NewElement(bodyName),
		bxdm.NewElement(bxdm.Name(EnvelopeNS, "Extra")))
	if _, err := EnvelopeFromDocument(bxdm.NewDocument(env2)); err == nil {
		t.Error("unexpected envelope child accepted")
	}
	// Header after body.
	env3 := bxdm.NewElement(envelopeName,
		bxdm.NewElement(bodyName),
		bxdm.NewElement(headerName))
	if _, err := EnvelopeFromDocument(bxdm.NewDocument(env3)); err == nil {
		t.Error("Header after Body accepted")
	}
}

func TestEncodeDecodeBothPolicies(t *testing.T) {
	env := sampleEnvelope()
	for _, enc := range []Encoding{XMLEncoding{}, BXSAEncoding{}, BXSAEncoding{Order: xbs.BigEndian}} {
		data, err := NewCodec(enc).EncodeBytes(env)
		if err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
		back, err := NewCodec(enc).DecodeEnvelope(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", enc.Name(), err)
		}
		if !env.Equal(back) {
			t.Errorf("%s: envelope round trip mismatch", enc.Name())
		}
	}
}

func TestBXSASmallerThanXMLForNumericPayloads(t *testing.T) {
	env := NewEnvelope(bxdm.NewArray(bxdm.LocalName("v"), make([]float64, 500)))
	xml, err := NewCodec(XMLEncoding{}).EncodeBytes(env)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := NewCodec(BXSAEncoding{}).EncodeBytes(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(xml) {
		t.Errorf("BXSA (%d bytes) not smaller than XML (%d bytes)", len(bin), len(xml))
	}
}

func TestFaultEnvelopeRoundTrip(t *testing.T) {
	f := &Fault{
		Code:   FaultClient,
		String: "bad things",
		Actor:  "urn:me",
		Detail: bxdm.NewLeaf(bxdm.LocalName("reason"), "numbers off"),
	}
	for _, enc := range []Encoding{XMLEncoding{}, BXSAEncoding{}} {
		data, err := NewCodec(enc).EncodeBytes(f.Envelope())
		if err != nil {
			t.Fatal(err)
		}
		env, err := NewCodec(enc).DecodeEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		back := FaultFromEnvelope(env)
		if back == nil {
			t.Fatalf("%s: fault not detected", enc.Name())
		}
		if back.Code != f.Code || back.String != f.String || back.Actor != f.Actor {
			t.Errorf("%s: fault = %+v", enc.Name(), back)
		}
		if back.Detail == nil {
			t.Errorf("%s: detail lost", enc.Name())
		}
		if !strings.Contains(back.Error(), "bad things") {
			t.Errorf("Error() = %q", back.Error())
		}
	}
}

func TestFaultFromEnvelopeNonFault(t *testing.T) {
	if FaultFromEnvelope(sampleEnvelope()) != nil {
		t.Error("non-fault body reported as fault")
	}
	if FaultFromEnvelope(NewEnvelope()) != nil {
		t.Error("empty body reported as fault")
	}
}

func TestCheckContentType(t *testing.T) {
	// Media type comparison per RFC 2045 §5.1: letter case, surrounding
	// whitespace, and parameters are all insignificant; the media type
	// itself is what must match.
	cases := []struct {
		got string
		ok  bool
	}{
		{"text/xml; charset=utf-8", true},
		{"text/xml", true},
		{"", true}, // absent content type: nothing to contradict
		{"Text/XML", true},
		{"TEXT/XML; charset=UTF-8", true},
		{"text/xml ; charset=utf-8", true},
		{"  text/xml\t", true},
		{"\ttext/XML  ;  boundary=x", true},
		{"application/x-bxsa", false},
		{"text/xmlx", false},
		{"text/xm", false},
		{"text/ xml", false}, // space inside the media type is not trimmable
	}
	for _, c := range cases {
		err := CheckContentType(XMLEncoding{}, c.got)
		if c.ok && err != nil {
			t.Errorf("CheckContentType(XML, %q) = %v, want accept", c.got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("CheckContentType(XML, %q) accepted, want reject", c.got)
		}
	}
}

// markMustUnderstand flags a header element with soap:mustUnderstand="1".
func markMustUnderstand(h *bxdm.Element) {
	h.SetAttr(bxdm.PName(EnvelopeNS, "soap", attrMustUnderstand), bxdm.StringValue("1"))
}

func TestEnvelopeHeaderLookupAndMustUnderstand(t *testing.T) {
	env := NewEnvelope()
	h := bxdm.NewElement(bxdm.Name("urn:h", "auth"))
	markMustUnderstand(h)
	env.AddHeader(h)
	env.AddHeader(bxdm.NewLeaf(bxdm.Name("urn:h", "trace"), "t1"))
	if env.Header(bxdm.Name("urn:h", "auth")) == nil {
		t.Error("header lookup failed")
	}
	if env.Header(bxdm.Name("urn:h", "absent")) != nil {
		t.Error("absent header found")
	}
	if !mustUnderstand(h) {
		t.Error("mustUnderstand flag lost")
	}
	if mustUnderstand(env.Header(bxdm.Name("urn:h", "trace"))) {
		t.Error("unflagged header reports mustUnderstand")
	}
}

func TestEnvelopeCloneIndependence(t *testing.T) {
	env := sampleEnvelope()
	cl := env.Clone()
	if !env.Equal(cl) {
		t.Fatal("clone differs")
	}
	cl.BodyChildren[0].(*bxdm.Element).SetAttr(bxdm.LocalName("x"), bxdm.StringValue("y"))
	if env.Equal(cl) {
		t.Error("mutating clone affected original")
	}
}

// inProcBinding is a loopback binding used to test the engine without a
// network: requests are dispatched straight into a dispatcher.
type inProcBinding struct {
	server   *Server[XMLEncoding, *nullServerBinding]
	response *Payload
}

type nullServerBinding struct{}

func (*nullServerBinding) Accept() (Channel, error) { select {} }
func (*nullServerBinding) Addr() net.Addr           { return nil }
func (*nullServerBinding) Close() error             { return nil }

func (b *inProcBinding) SendRequest(ctx context.Context, payload *Payload, ct string) error {
	resp, err := b.server.Dispatcher().DispatchPayload(ctx, payload, ct, new(obs.Span), nil)
	b.response = resp
	return err
}

func (b *inProcBinding) ReceiveResponse(context.Context) (*Payload, string, error) {
	return b.response, b.server.Codec().ContentType(), nil
}

func (b *inProcBinding) Close() error { return nil }

func TestEngineCallThroughDispatcher(t *testing.T) {
	handler := func(_ context.Context, req *Envelope) (*Envelope, error) {
		arr := req.Body().(*bxdm.Element).FirstChild(bxdm.Name("urn:svc", "vals")).(*bxdm.ArrayElement)
		items, _ := bxdm.Items[float64](arr.Data)
		sum := 0.0
		for _, v := range items {
			sum += v
		}
		return NewEnvelope(bxdm.NewLeaf(bxdm.LocalName("sum"), sum)), nil
	}
	srv := NewServer(XMLEncoding{}, &nullServerBinding{}, handler)
	eng := NewEngine(XMLEncoding{}, &inProcBinding{server: srv})
	resp, err := eng.Call(context.Background(), sampleEnvelope())
	if err != nil {
		t.Fatal(err)
	}
	leaf := resp.Body().(*bxdm.LeafElement)
	if leaf.Value.Float64() != 4.5 {
		t.Errorf("sum = %v", leaf.Value.Float64())
	}
}

func TestEngineSurfacesFaults(t *testing.T) {
	handler := func(_ context.Context, _ *Envelope) (*Envelope, error) {
		return nil, &Fault{Code: FaultClient, String: "rejected"}
	}
	srv := NewServer(XMLEncoding{}, &nullServerBinding{}, handler)
	eng := NewEngine(XMLEncoding{}, &inProcBinding{server: srv})
	_, err := eng.Call(context.Background(), sampleEnvelope())
	var f *Fault
	if !asFault(err, &f) || f.Code != FaultClient || f.String != "rejected" {
		t.Fatalf("err = %v, want client fault", err)
	}
}

func TestEngineWrapsHandlerErrors(t *testing.T) {
	handler := func(_ context.Context, _ *Envelope) (*Envelope, error) {
		return nil, bytes.ErrTooLarge
	}
	srv := NewServer(XMLEncoding{}, &nullServerBinding{}, handler)
	eng := NewEngine(XMLEncoding{}, &inProcBinding{server: srv})
	_, err := eng.Call(context.Background(), sampleEnvelope())
	var f *Fault
	if !asFault(err, &f) || f.Code != FaultServer {
		t.Fatalf("err = %v, want server fault", err)
	}
}

func TestDispatchMustUnderstand(t *testing.T) {
	handler := func(_ context.Context, _ *Envelope) (*Envelope, error) {
		return NewEnvelope(), nil
	}
	srv := NewServer(XMLEncoding{}, &nullServerBinding{}, handler)
	env := sampleEnvelope()
	h := bxdm.NewElement(bxdm.Name("urn:sec", "token"))
	markMustUnderstand(h)
	env.AddHeader(h)

	bind := &inProcBinding{server: srv}
	eng := NewEngine(XMLEncoding{}, bind)
	_, err := eng.Call(context.Background(), env)
	var f *Fault
	if !asFault(err, &f) || f.Code != FaultMustUnderstand {
		t.Fatalf("err = %v, want MustUnderstand fault", err)
	}
}

func TestDispatchRejectsGarbage(t *testing.T) {
	srv := NewServer(XMLEncoding{}, &nullServerBinding{}, func(_ context.Context, _ *Envelope) (*Envelope, error) {
		return NewEnvelope(), nil
	})
	dispatch := func(req, ct string) *Fault {
		t.Helper()
		p := NewPayloadFrom([]byte(req))
		defer p.Release()
		out, err := srv.Dispatcher().DispatchPayload(context.Background(), p, ct, new(obs.Span), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Release()
		resp, err := srv.Codec().DecodePayload(out)
		if err != nil {
			t.Fatal(err)
		}
		return FaultFromEnvelope(resp)
	}
	if f := dispatch("this is not xml", "text/xml"); f == nil || f.Code != FaultClient {
		t.Fatalf("garbage request → %v", f)
	}
	if f := dispatch("<x/>", "application/x-bxsa"); f == nil || f.Code != FaultClient {
		t.Fatal("content-type mismatch not faulted")
	}
}

func asFault(err error, f **Fault) bool {
	if err == nil {
		return false
	}
	x, ok := err.(*Fault)
	if ok {
		*f = x
	}
	return ok
}

// TestAckSniffScansFullPayload: a fault acknowledgement may carry
// arbitrarily large leading headers (e.g. signed Security headers) before
// the Fault element; the sniff must not stop at some prefix window and
// misreport the ack as clean.
func TestAckSniffScansFullPayload(t *testing.T) {
	padded := append(bytes.Repeat([]byte{'h'}, 4096), []byte("<soap:Fault>")...)
	if !ackLooksLikeFault(padded) {
		t.Error("fault marker past 1KB of headers not detected")
	}
	if ackLooksLikeFault(bytes.Repeat([]byte{'x'}, 4096)) {
		t.Error("false positive on payload without fault marker")
	}
}
