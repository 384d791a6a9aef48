package broker

import (
	"testing"

	"repro/internal/advert"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// capture collects a broker's outgoing messages.
type capture struct {
	sent []struct {
		to  string
		msg *Message
	}
}

func (c *capture) send(to string, m *Message) {
	c.sent = append(c.sent, struct {
		to  string
		msg *Message
	}{to, m})
}

func (c *capture) count(t MsgType) int {
	n := 0
	for _, s := range c.sent {
		if s.msg.Type == t {
			n++
		}
	}
	return n
}

func newTestBroker(cfg Config) (*Broker, *capture) {
	cap := &capture{}
	cfg.ID = "b1"
	b := New(cfg, cap.send)
	return b, cap
}

func adv(id, s string) *Message {
	return &Message{Type: MsgAdvertise, AdvID: id, Adv: advert.MustParse(s)}
}

func sub(s string) *Message {
	return &Message{Type: MsgSubscribe, XPE: xpath.MustParse(s)}
}

func TestAdvertiseFloodAndDedup(t *testing.T) {
	b, cap := newTestBroker(Config{UseAdvertisements: true})
	b.AddNeighbor("b2")
	b.AddNeighbor("b3")
	b.HandleMessage(adv("a1", "/x/y"), "b2")
	if got := cap.count(MsgAdvertise); got != 1 {
		t.Fatalf("flooded %d advertise messages, want 1 (to b3 only)", got)
	}
	if cap.sent[0].to != "b3" {
		t.Errorf("flooded to %s", cap.sent[0].to)
	}
	// Flooding duplicate is dropped.
	b.HandleMessage(adv("a1", "/x/y"), "b3")
	if got := cap.count(MsgAdvertise); got != 1 {
		t.Errorf("duplicate advertisement reflooded")
	}
	if b.SRTSize() != 1 {
		t.Errorf("SRT = %d", b.SRTSize())
	}
}

func TestAdvertisementCoveringSameHopOnly(t *testing.T) {
	b, _ := newTestBroker(Config{UseAdvertisements: true, UseCovering: true})
	b.AddNeighbor("b2")
	b.AddNeighbor("b3")
	b.HandleMessage(adv("a1", "/x/*"), "b2")
	// Covered, same last hop: absorbed.
	b.HandleMessage(adv("a2", "/x/y"), "b2")
	if b.SRTSize() != 1 {
		t.Errorf("SRT = %d, want 1 (covered advertisement absorbed)", b.SRTSize())
	}
	// Covered but different last hop: must be kept, it leads elsewhere.
	b.HandleMessage(adv("a3", "/x/y"), "b3")
	if b.SRTSize() != 2 {
		t.Errorf("SRT = %d, want 2 (different producers)", b.SRTSize())
	}
}

func TestUnadvertise(t *testing.T) {
	b, cap := newTestBroker(Config{UseAdvertisements: true})
	b.AddNeighbor("b2")
	b.AddNeighbor("b3")
	b.HandleMessage(adv("a1", "/x/y"), "b2")
	b.HandleMessage(&Message{Type: MsgUnadvertise, AdvID: "a1"}, "b2")
	if b.SRTSize() != 0 {
		t.Errorf("SRT = %d after unadvertise", b.SRTSize())
	}
	if got := cap.count(MsgUnadvertise); got != 1 {
		t.Errorf("unadvertise flooded %d times, want 1", got)
	}
	// Unknown unadvertise is ignored.
	b.HandleMessage(&Message{Type: MsgUnadvertise, AdvID: "zz"}, "b2")
}

func TestSubscribeRoutesTowardMatchingAdvertisementsOnly(t *testing.T) {
	b, cap := newTestBroker(Config{UseAdvertisements: true})
	b.AddNeighbor("b2")
	b.AddNeighbor("b3")
	b.HandleMessage(adv("a1", "/stock/quote"), "b2")
	b.HandleMessage(adv("a2", "/weather/report"), "b3")
	b.AddClient("c1")
	b.HandleMessage(sub("/stock"), "c1")
	if got := cap.count(MsgSubscribe); got != 1 {
		t.Fatalf("forwarded %d subscribes, want 1", got)
	}
	last := cap.sent[len(cap.sent)-1]
	if last.to != "b2" {
		t.Errorf("subscription routed to %s, want b2", last.to)
	}
}

func TestSubscribeNotSentBackToOrigin(t *testing.T) {
	b, cap := newTestBroker(Config{UseAdvertisements: true})
	b.AddNeighbor("b2")
	b.HandleMessage(adv("a1", "/stock/quote"), "b2")
	before := cap.count(MsgSubscribe)
	b.HandleMessage(sub("/stock"), "b2")
	if got := cap.count(MsgSubscribe) - before; got != 0 {
		t.Errorf("subscription sent back toward its origin %d times", got)
	}
}

func TestPublishDeliveryAndStats(t *testing.T) {
	b, cap := newTestBroker(Config{})
	b.AddClient("c1")
	b.HandleMessage(sub("/a/b"), "c1")
	b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b", "c"}}}, "b2")
	if got := cap.count(MsgPublish); got != 1 {
		t.Fatalf("published %d, want 1", got)
	}
	st := b.Stats()
	if st.Deliveries != 1 {
		t.Errorf("Deliveries = %d", st.Deliveries)
	}
	if st.MsgsIn[MsgPublish] != 1 || st.MsgsIn[MsgSubscribe] != 1 {
		t.Errorf("MsgsIn = %v", st.MsgsIn)
	}
	if st.MsgsOut[MsgPublish] != 1 {
		t.Errorf("MsgsOut = %v", st.MsgsOut)
	}
}

func TestPublishNotSentBackToSource(t *testing.T) {
	b, cap := newTestBroker(Config{})
	b.AddNeighbor("b2")
	b.HandleMessage(sub("/a"), "b2")
	b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b"}}}, "b2")
	if got := cap.count(MsgPublish); got != 0 {
		t.Errorf("publication reflected to its source %d times", got)
	}
}

func TestDuplicateSubscriptionNotReforwarded(t *testing.T) {
	b, cap := newTestBroker(Config{UseAdvertisements: true})
	b.AddNeighbor("b2")
	b.HandleMessage(adv("a1", "/a/b"), "b2")
	b.AddClient("c1")
	b.AddClient("c2")
	b.HandleMessage(sub("/a"), "c1")
	first := cap.count(MsgSubscribe)
	b.HandleMessage(sub("/a"), "c2")
	if got := cap.count(MsgSubscribe); got != first {
		t.Errorf("duplicate subscription reforwarded")
	}
	// Both clients receive matching publications.
	b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b"}}}, "b2")
	if got := b.Stats().Deliveries; got != 2 {
		t.Errorf("deliveries = %d, want 2", got)
	}
}

func TestUnsubscribeKeepsSharedSubscription(t *testing.T) {
	b, _ := newTestBroker(Config{})
	b.AddClient("c1")
	b.AddClient("c2")
	b.HandleMessage(sub("/a"), "c1")
	b.HandleMessage(sub("/a"), "c2")
	b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: xpath.MustParse("/a")}, "c1")
	if b.PRTSize() != 1 {
		t.Fatalf("PRT = %d, want 1 (c2 still subscribed)", b.PRTSize())
	}
	b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a"}}}, "b2")
	if got := b.Stats().Deliveries; got != 1 {
		t.Errorf("deliveries = %d, want 1 (only c2)", got)
	}
}

func unsubM(s string) *Message {
	return &Message{Type: MsgUnsubscribe, XPE: xpath.MustParse(s)}
}

// sentTo lists the expressions of messages of one type sent to one peer.
func (c *capture) sentTo(peer string, t MsgType) []string {
	var out []string
	for _, s := range c.sent {
		if s.to == peer && s.msg.Type == t && s.msg.XPE != nil {
			out = append(out, s.msg.XPE.String())
		}
	}
	return out
}

// A subscription quenched by a coverer must be promoted (re-forwarded) when
// that coverer is unsubscribed — even when the coverer has meanwhile been
// adopted under a broader subscription in the covering tree. Here /*
// arrived from the neighbour itself and was never forwarded anywhere, so it
// cannot serve the quenched child; skipping the promotion because /*/sec
// sat below /* black-holed the child subscription (found by the chaos
// equivalence test).
func TestUncoveringPromotesNestedCoveredSubscription(t *testing.T) {
	b, cap := newTestBroker(Config{UseCovering: true})
	b.AddNeighbor("n")
	b.AddClient("c")

	b.HandleMessage(sub("/*/sec"), "c")
	if got := cap.sentTo("n", MsgSubscribe); len(got) != 1 || got[0] != "/*/sec" {
		t.Fatalf("after /*/sec: forwarded %v, want [/*/sec]", got)
	}
	// Covered by /*/sec at hop n: quenched.
	b.HandleMessage(sub("/root/sec//*/par/*"), "c")
	if got := cap.sentTo("n", MsgSubscribe); len(got) != 1 {
		t.Fatalf("covered subscription should be quenched, forwarded %v", got)
	}
	// /* adopts /*/sec as a covering-tree child; it arrives from n, so it
	// is never forwarded and serves no hop.
	b.HandleMessage(sub("/*"), "n")

	b.HandleMessage(unsubM("/*/sec"), "c")
	if got := cap.sentTo("n", MsgUnsubscribe); len(got) != 1 || got[0] != "/*/sec" {
		t.Fatalf("withdrawal not propagated: %v", got)
	}
	if got := cap.sentTo("n", MsgSubscribe); len(got) != 2 || got[1] != "/root/sec//*/par/*" {
		t.Fatalf("quenched subscription not promoted on uncovering, forwarded %v", got)
	}
}

// When an unsubscribe leaves a subscription's only remaining interest
// direction equal to a hop it was forwarded to, that forward no longer
// serves anyone — the hop must receive a withdrawal, or it keeps a phantom
// entry pointing back here forever (found by the chaos equivalence test:
// the unsubscribe was lost to a crash and the resynced tables kept the
// phantom).
func TestUnsubscribeWithdrawsVacuousForward(t *testing.T) {
	b, cap := newTestBroker(Config{})
	b.AddNeighbor("n1")
	b.AddNeighbor("n2")
	b.AddNeighbor("n3")

	b.HandleMessage(sub("/root"), "n1") // forwarded to n2, n3
	b.HandleMessage(sub("/root"), "n2") // new direction: forwarded to n1
	if got := cap.count(MsgSubscribe); got != 3 {
		t.Fatalf("forwarded %d subscribes, want 3", got)
	}

	cap.sent = nil
	b.HandleMessage(unsubM("/root"), "n1")
	// n2 is now the only interested direction; the forward to n2 is vacuous
	// and must be withdrawn. n1 and n3 still serve n2's interest.
	if got := cap.sentTo("n2", MsgUnsubscribe); len(got) != 1 || got[0] != "/root" {
		t.Fatalf("vacuous forward to n2 not withdrawn: %v", got)
	}
	if got := cap.count(MsgUnsubscribe); got != 1 {
		t.Fatalf("emitted %d unsubscribes, want 1 (n2 only)", got)
	}
	// The entry itself must survive: n2's subscriber still needs delivery.
	for _, sr := range b.Routes().Subscriptions {
		if sr.XPE == "/root" {
			if len(sr.LastHops) != 1 || sr.LastHops[0] != "n2" {
				t.Fatalf("last hops = %v, want [n2]", sr.LastHops)
			}
			return
		}
	}
	t.Fatal("/root entry removed entirely")
}

// TestLongSubscriptionsDoNotPanic: the wire admits expressions of up to
// xpath.MaxSteps steps, and covering must answer for any pair of them. This
// pair once made the exact covering check panic on the second subscribe,
// which the transport could survive only by dropping the client's link.
// Both subscriptions must be stored and route a path each selects, with
// covering on and off.
func TestLongSubscriptionsDoNotPanic(t *testing.T) {
	first := "//*/*/*/a/*/*//a//*//a/*/a/a/a//a//*/a//*"
	second := "/b/*/a/b/b/a/*/a/b/a/b/a/*//a/a//a/*//*"
	path := []string{"b", "a", "a", "b", "b", "a", "a", "a", "b", "a", "b", "a", "a", "a", "a", "a", "a", "a"}
	for _, covering := range []bool{false, true} {
		b, cap := newTestBroker(Config{UseCovering: covering})
		b.AddNeighbor("b2")
		b.AddClient("c1")
		b.HandleMessage(sub(first), "c1")
		b.HandleMessage(sub(second), "c1")
		if got := b.PRTSize(); got != 2 {
			t.Errorf("covering %v: PRT holds %d subscriptions, want 2", covering, got)
		}
		if !xpath.MustParse(second).MatchesPathAttrs(path, nil) {
			t.Fatalf("test path %v does not match %s", path, second)
		}
		b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: path}}, "b2")
		delivered := 0
		for _, s := range cap.sent {
			if s.to == "c1" && s.msg.Type == MsgPublish {
				delivered++
			}
		}
		if delivered != 1 {
			t.Errorf("covering %v: delivered %d publications to c1, want 1", covering, delivered)
		}
	}
}
