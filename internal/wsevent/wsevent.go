// Package wsevent implements a WS-Eventing subscribe/notify layer over the
// generic SOAP engine — the "WS-Eventing" box in the paper's Figure 3. The
// broker and subscriber exchange plain envelopes built from bXDM nodes, so
// the whole layer runs unchanged over textual XML or BXSA, over HTTP or
// TCP; event payloads containing numeric arrays ride as packed
// ArrayElements when the subscriber chose a binary binding.
package wsevent

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/tcpbind"
	"bxsoap/internal/wsa"
)

// Namespace is the WS-Eventing namespace.
const Namespace = "http://schemas.xmlsoap.org/ws/2004/08/eventing"

// Actions.
const (
	ActionSubscribe = Namespace + "/Subscribe"
	ActionNotify    = Namespace + "/Notify"
)

func evName(local string) bxdm.QName { return bxdm.PName(Namespace, "wse", local) }

// SubscribeRequest builds a Subscribe envelope. deliveryAddr is the
// subscriber's notify endpoint ("tcp://host:port" in this implementation),
// and encoding names the policy the subscriber will decode notifications
// with ("BXSA" or "XML").
func SubscribeRequest(deliveryAddr, encoding string) *core.Envelope {
	sub := bxdm.NewElement(evName("Subscribe"))
	sub.DeclareNamespace("wse", Namespace)
	delivery := bxdm.NewElement(evName("Delivery"),
		bxdm.NewLeaf(evName("NotifyTo"), deliveryAddr),
		bxdm.NewLeaf(evName("Encoding"), encoding),
	)
	sub.Append(delivery)
	env := core.NewEnvelope(sub)
	wsa.Properties{Action: ActionSubscribe, MessageID: wsa.NewMessageID()}.Attach(env)
	return env
}

// Subscription is one active delivery registration.
type Subscription struct {
	ID       string
	NotifyTo string
	Encoding string
}

// Broker manages subscriptions and delivers notifications. Register its
// Handle method as (part of) a server's handler.
type Broker struct {
	mu   sync.Mutex
	next int
	subs map[string]Subscription
	// DialTCP lets tests and shaped networks intercept delivery dials.
	DialTCP tcpbind.Dialer
}

// NewBroker constructs an empty broker delivering over plain TCP.
func NewBroker() *Broker {
	return &Broker{subs: make(map[string]Subscription), DialTCP: tcpbind.NetDialer}
}

// Handle processes Subscribe/Unsubscribe envelopes; it returns an error
// fault for anything else.
func (b *Broker) Handle(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	body := req.Body()
	if body == nil {
		return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
	}
	switch {
	case body.ElemName().Matches(bxdm.Name(Namespace, "Subscribe")):
		return b.subscribe(body)
	case body.ElemName().Matches(bxdm.Name(Namespace, "Unsubscribe")):
		return b.unsubscribe(body)
	default:
		return nil, &core.Fault{Code: core.FaultClient,
			String: fmt.Sprintf("unsupported operation %v", body.ElemName())}
	}
}

func (b *Broker) subscribe(body bxdm.ElementNode) (*core.Envelope, error) {
	el, ok := body.(*bxdm.Element)
	if !ok {
		return nil, &core.Fault{Code: core.FaultClient, String: "malformed Subscribe"}
	}
	delivery, ok := el.FirstChild(bxdm.Name(Namespace, "Delivery")).(*bxdm.Element)
	if !ok || delivery == nil {
		return nil, &core.Fault{Code: core.FaultClient, String: "Subscribe without Delivery"}
	}
	notifyTo := childText(delivery, "NotifyTo")
	encoding := childText(delivery, "Encoding")
	if notifyTo == "" {
		return nil, &core.Fault{Code: core.FaultClient, String: "Delivery without NotifyTo"}
	}
	if encoding == "" {
		encoding = "XML"
	}
	if encoding != "XML" && encoding != "BXSA" {
		return nil, &core.Fault{Code: core.FaultClient, String: "unknown delivery encoding " + encoding}
	}
	b.mu.Lock()
	b.next++
	id := "sub-" + strconv.Itoa(b.next)
	b.subs[id] = Subscription{ID: id, NotifyTo: notifyTo, Encoding: encoding}
	b.mu.Unlock()

	resp := bxdm.NewElement(evName("SubscribeResponse"))
	resp.DeclareNamespace("wse", Namespace)
	resp.Append(bxdm.NewLeaf(evName("Identifier"), id))
	return core.NewEnvelope(resp), nil
}

func (b *Broker) unsubscribe(body bxdm.ElementNode) (*core.Envelope, error) {
	idV, ok := body.Attr(bxdm.LocalName("id"))
	if !ok {
		return nil, &core.Fault{Code: core.FaultClient, String: "Unsubscribe without id"}
	}
	b.mu.Lock()
	_, existed := b.subs[idV.Text()]
	delete(b.subs, idV.Text())
	b.mu.Unlock()
	if !existed {
		return nil, &core.Fault{Code: core.FaultClient, String: "unknown subscription " + idV.Text()}
	}
	resp := bxdm.NewElement(evName("UnsubscribeResponse"))
	resp.DeclareNamespace("wse", Namespace)
	return core.NewEnvelope(resp), nil
}

func childText(el *bxdm.Element, local string) string {
	c := el.FirstChild(bxdm.Name(Namespace, local))
	switch x := c.(type) {
	case *bxdm.LeafElement:
		return x.Value.Text()
	case *bxdm.Element:
		return x.TextContent()
	default:
		return ""
	}
}

// Subscriptions returns a snapshot of active subscriptions.
func (b *Broker) Subscriptions() []Subscription {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		out = append(out, s)
	}
	return out
}

// Notify delivers an event to every subscriber with its chosen encoding
// over a TCP binding, and returns the number of successful deliveries plus
// the first error encountered.
func (b *Broker) Notify(ctx context.Context, event bxdm.Node) (int, error) {
	subs := b.Subscriptions()
	delivered := 0
	var firstErr error
	for _, s := range subs {
		env := core.NewEnvelope(bxdm.Clone(event))
		wsa.Properties{Action: ActionNotify, MessageID: wsa.NewMessageID()}.Attach(env)
		err := b.deliver(ctx, s, env)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wsevent: deliver to %s: %w", s.NotifyTo, err)
			}
			continue
		}
		delivered++
	}
	return delivered, firstErr
}

func (b *Broker) deliver(ctx context.Context, s Subscription, env *core.Envelope) error {
	bind := tcpbind.New(b.DialTCP, s.NotifyTo)
	defer bind.Close()
	// Notifications are acknowledged with an empty envelope; the engine's
	// request-response MEP gives end-to-end delivery confirmation.
	switch s.Encoding {
	case "BXSA":
		eng := core.NewEngine(core.BXSAEncoding{}, bind)
		_, err := eng.Call(ctx, env)
		return err
	default:
		eng := core.NewEngine(core.XMLEncoding{}, bind)
		_, err := eng.Call(ctx, env)
		return err
	}
}
