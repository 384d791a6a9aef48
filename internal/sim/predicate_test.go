package sim

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestAttributePredicateRouting exercises the paper's attribute extension
// end to end: the motivating insurance scenario — claims routed to the
// expert speaking the requester's language — expressed as an attribute
// predicate.
func TestAttributePredicateRouting(t *testing.T) {
	n := NewNetwork(1)
	ids := BuildChain(n, 3, ConfigTemplate(broker.Config{UseAdvertisements: false, UseCovering: true}))
	broker3 := ids[2]
	pub := n.AddClient("broker-office", ids[0])
	english := n.AddClient("expert-en", broker3)
	french := n.AddClient("expert-fr", broker3)
	anyLang := n.AddClient("supervisor", broker3)

	english.Send(&broker.Message{Type: broker.MsgSubscribe,
		XPE: xpath.MustParse(`/insurance/claim[@lang='en']//detail`)})
	french.Send(&broker.Message{Type: broker.MsgSubscribe,
		XPE: xpath.MustParse(`/insurance/claim[@lang='fr']//detail`)})
	anyLang.Send(&broker.Message{Type: broker.MsgSubscribe,
		XPE: xpath.MustParse(`/insurance/claim//detail`)})
	n.Run()

	pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: []byte(
		`<insurance><claim lang="en" urgency="high"><body><detail>rear-end collision</detail></body></claim></insurance>`)})
	n.Run()

	if len(english.Deliveries) != 1 {
		t.Errorf("english expert deliveries = %d, want 1", len(english.Deliveries))
	}
	if len(french.Deliveries) != 0 {
		t.Errorf("french expert deliveries = %d, want 0", len(french.Deliveries))
	}
	if len(anyLang.Deliveries) != 1 {
		t.Errorf("supervisor deliveries = %d, want 1", len(anyLang.Deliveries))
	}
}

// TestPredicateCoveringSuppression: the predicate-free subscription covers
// the predicated one, so covering suppresses the narrower one's forwarding
// while both keep receiving matching publications.
func TestPredicateCoveringSuppression(t *testing.T) {
	n := NewNetwork(2)
	ids := BuildChain(n, 2, ConfigTemplate(broker.Config{UseAdvertisements: false, UseCovering: true}))
	pub := n.AddClient("pub", ids[0])
	s1 := n.AddClient("s1", ids[1])
	s2 := n.AddClient("s2", ids[1])

	s1.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(`/order/item`)})
	n.Run()
	n.ResetTraffic()
	s2.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(`/order/item[@sku='7']`)})
	n.Run()
	if got := n.BrokerReceived()[broker.MsgSubscribe]; got != 1 {
		t.Errorf("covered predicated subscription forwarded: %d receipts, want 1", got)
	}

	match := xmldoc.Publication{
		Path:  []string{"order", "item"},
		Attrs: []map[string]string{nil, {"sku": "7"}},
	}
	other := xmldoc.Publication{
		Path:  []string{"order", "item"},
		Attrs: []map[string]string{nil, {"sku": "9"}},
	}
	pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: match})
	pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: other})
	n.Run()

	if len(s1.Deliveries) != 2 {
		t.Errorf("s1 deliveries = %d, want 2", len(s1.Deliveries))
	}
	if len(s2.Deliveries) != 1 {
		t.Errorf("s2 deliveries = %d, want 1 (predicate must filter sku=9)", len(s2.Deliveries))
	}
}

// TestPredicatesFilterInNetwork: a publication matching no predicate is
// dropped at the first broker, not at the edge.
func TestPredicatesFilterInNetwork(t *testing.T) {
	n := NewNetwork(3)
	ids := BuildChain(n, 3, ConfigTemplate(broker.Config{}))
	pub := n.AddClient("pub", ids[0])
	sub := n.AddClient("sub", ids[2])
	sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(`/a/b[@k='v']`)})
	n.Run()
	n.ResetTraffic()
	pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{
		Path:  []string{"a", "b"},
		Attrs: []map[string]string{nil, {"k": "other"}},
	}})
	n.Run()
	if got := n.BrokerReceived()[broker.MsgPublish]; got != 1 {
		t.Errorf("non-matching publication travelled %d broker hops, want 1", got)
	}
	if len(sub.Deliveries) != 0 {
		t.Errorf("deliveries = %d, want 0", len(sub.Deliveries))
	}
}
