package wsevent

import (
	"context"
	"sync"
	"testing"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/tcpbind"
	"bxsoap/internal/wsa"
)

// notifySink runs a SOAP server that records delivered events.
type notifySink struct {
	mu     sync.Mutex
	events []*core.Envelope
}

func (s *notifySink) handler(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	s.mu.Lock()
	s.events = append(s.events, req.Clone())
	s.mu.Unlock()
	return core.NewEnvelope(), nil
}

func (s *notifySink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

func startSink(t *testing.T, enc core.Encoding) (*notifySink, string) {
	t.Helper()
	sink := &notifySink{}
	l, err := tcpbind.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srv interface{ Close() error }
	switch e := enc.(type) {
	case core.BXSAEncoding:
		s := core.NewServer(e, l, sink.handler)
		go s.Serve()
		srv = s
	case core.XMLEncoding:
		s := core.NewServer(e, l, sink.handler)
		go s.Serve()
		srv = s
	default:
		t.Fatalf("unsupported sink encoding %T", enc)
	}
	t.Cleanup(func() { srv.Close() })
	return sink, l.Addr().String()
}

func event() bxdm.Node {
	e := bxdm.NewElement(bxdm.Name("urn:ev", "reading"))
	e.DeclareNamespace("ev", "urn:ev")
	e.Append(bxdm.NewArray(bxdm.Name("urn:ev", "samples"), []float64{9.5, 8.25}))
	return e
}

func TestSubscribeNotifyUnsubscribe(t *testing.T) {
	broker := NewBroker()
	binSink, binAddr := startSink(t, core.BXSAEncoding{})
	xmlSink, xmlAddr := startSink(t, core.XMLEncoding{})

	// Subscribe both, with different delivery encodings.
	ctx := context.Background()
	resp, err := broker.Handle(ctx, SubscribeRequest(binAddr, "BXSA"))
	if err != nil {
		t.Fatal(err)
	}
	binID := subscriptionID(t, resp)
	if _, err := broker.Handle(ctx, SubscribeRequest(xmlAddr, "XML")); err != nil {
		t.Fatal(err)
	}
	if len(broker.Subscriptions()) != 2 {
		t.Fatalf("subscriptions = %d", len(broker.Subscriptions()))
	}

	delivered, err := broker.Notify(ctx, event())
	if err != nil || delivered != 2 {
		t.Fatalf("Notify = %d, %v", delivered, err)
	}
	if binSink.count() != 1 || xmlSink.count() != 1 {
		t.Errorf("sink deliveries = %d/%d", binSink.count(), xmlSink.count())
	}

	// The BXSA subscriber received the packed array intact.
	binSink.mu.Lock()
	got := binSink.events[0].Body().(*bxdm.Element)
	binSink.mu.Unlock()
	arr, ok := got.FirstChild(bxdm.Name("urn:ev", "samples")).(*bxdm.ArrayElement)
	if !ok {
		t.Fatal("delivered event lost its array element")
	}
	if items, _ := bxdm.Items[float64](arr.Data); len(items) != 2 || items[0] != 9.5 {
		t.Errorf("delivered samples = %v", arr.Data)
	}

	// Unsubscribe the binary one; the next notify reaches only XML.
	if _, err := broker.Handle(ctx, unsubscribeRequest(binID)); err != nil {
		t.Fatal(err)
	}
	delivered, err = broker.Notify(ctx, event())
	if err != nil || delivered != 1 {
		t.Fatalf("Notify after unsubscribe = %d, %v", delivered, err)
	}
	if binSink.count() != 1 || xmlSink.count() != 2 {
		t.Errorf("post-unsubscribe deliveries = %d/%d", binSink.count(), xmlSink.count())
	}
}

func subscriptionID(t *testing.T, resp *core.Envelope) string {
	t.Helper()
	body := resp.Body().(*bxdm.Element)
	id := body.FirstChild(bxdm.Name(Namespace, "Identifier"))
	if id == nil {
		t.Fatal("SubscribeResponse without Identifier")
	}
	return id.(*bxdm.LeafElement).Value.Text()
}

func TestSubscribeValidation(t *testing.T) {
	broker := NewBroker()
	ctx := context.Background()

	// No Delivery element.
	bad := bxdm.NewElement(bxdm.PName(Namespace, "wse", "Subscribe"))
	bad.DeclareNamespace("wse", Namespace)
	if _, err := broker.Handle(ctx, core.NewEnvelope(bad)); err == nil {
		t.Error("Subscribe without Delivery accepted")
	}

	// Unknown encoding.
	if _, err := broker.Handle(ctx, SubscribeRequest("tcp://x:1", "EXI")); err == nil {
		t.Error("unknown encoding accepted")
	}

	// Unknown operation.
	other := core.NewEnvelope(bxdm.NewElement(bxdm.Name("urn:other", "op")))
	if _, err := broker.Handle(ctx, other); err == nil {
		t.Error("unknown operation accepted")
	}

	// Unsubscribe of unknown id.
	if _, err := broker.Handle(ctx, unsubscribeRequest("sub-404")); err == nil {
		t.Error("unknown unsubscribe accepted")
	}
}

func TestNotifyWithDeadSubscriber(t *testing.T) {
	broker := NewBroker()
	ctx := context.Background()
	if _, err := broker.Handle(ctx, SubscribeRequest("127.0.0.1:1", "XML")); err != nil {
		t.Fatal(err)
	}
	live, addr := startSink(t, core.XMLEncoding{})
	if _, err := broker.Handle(ctx, SubscribeRequest(addr, "XML")); err != nil {
		t.Fatal(err)
	}
	delivered, err := broker.Notify(ctx, event())
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (dead subscriber skipped)", delivered)
	}
	if err == nil {
		t.Error("Notify should report the delivery failure")
	}
	if live.count() != 1 {
		t.Errorf("live sink got %d", live.count())
	}
}

func TestBrokerOverSOAPEngine(t *testing.T) {
	// The broker itself served through the generic engine: subscribe via a
	// real SOAP round trip.
	broker := NewBroker()
	l, err := tcpbind.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(core.BXSAEncoding{}, l, broker.Handle)
	go srv.Serve()
	defer srv.Close()

	sink, sinkAddr := startSink(t, core.BXSAEncoding{})
	eng := core.NewEngine(core.BXSAEncoding{}, tcpbind.New(tcpbind.NetDialer, l.Addr().String()))
	defer eng.Close()
	resp, err := eng.Call(context.Background(), SubscribeRequest(sinkAddr, "BXSA"))
	if err != nil {
		t.Fatal(err)
	}
	if id := subscriptionID(t, resp); id == "" {
		t.Fatal("no id")
	}
	if _, err := broker.Notify(context.Background(), event()); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 {
		t.Errorf("sink got %d events", sink.count())
	}
}

// unsubscribeRequest builds an Unsubscribe envelope for a subscription id.
func unsubscribeRequest(id string) *core.Envelope {
	un := bxdm.NewElement(evName("Unsubscribe"))
	un.DeclareNamespace("wse", Namespace)
	un.SetAttr(bxdm.LocalName("id"), bxdm.StringValue(id))
	env := core.NewEnvelope(un)
	wsa.Properties{Action: Namespace + "/Unsubscribe", MessageID: wsa.NewMessageID()}.Attach(env)
	return env
}
