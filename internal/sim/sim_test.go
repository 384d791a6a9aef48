package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/faultinject"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func pubMsg(path ...string) *broker.Message {
	return &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: path},
	}
}

func subMsg(s string) *broker.Message {
	return &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(s)}
}

func advMsg(id, a string) *broker.Message {
	return &broker.Message{Type: broker.MsgAdvertise, AdvID: id, Adv: advert.MustParse(a)}
}

// buildTriangle is a 3-broker chain with a publisher on one end and two
// subscribers on the other.
func buildTriangle(t *testing.T, cfg broker.Config) (*Network, *Client, *Client, *Client) {
	t.Helper()
	n := NewNetwork(1)
	ids := BuildChain(n, 3, ConfigTemplate(cfg))
	pub := n.AddClient("pub", ids[0])
	s1 := n.AddClient("sub1", ids[2])
	s2 := n.AddClient("sub2", ids[2])
	return n, pub, s1, s2
}

func TestEndToEndWithAdvertisements(t *testing.T) {
	n, pub, s1, s2 := buildTriangle(t, broker.Config{UseAdvertisements: true, UseCovering: true})
	pub.Send(advMsg("a1", "/stock/quote/price"))
	n.Run()
	s1.Send(subMsg("/stock/quote"))
	s2.Send(subMsg("/stock/bond"))
	n.Run()
	pub.Send(pubMsg("stock", "quote", "price"))
	n.Run()
	if len(s1.Deliveries) != 1 {
		t.Fatalf("sub1 deliveries = %d, want 1", len(s1.Deliveries))
	}
	if len(s2.Deliveries) != 0 {
		t.Fatalf("sub2 deliveries = %d, want 0", len(s2.Deliveries))
	}
	if s1.Deliveries[0].Delay <= 0 {
		t.Error("delivery delay not measured")
	}
}

// TestAdvertisementPruning: with advertisements, a subscription matching no
// advertisement is not forwarded at all.
func TestAdvertisementPruning(t *testing.T) {
	n := NewNetwork(1)
	ids := BuildChain(n, 3, ConfigTemplate(broker.Config{UseAdvertisements: true}))
	pub := n.AddClient("pub", ids[0])
	sub := n.AddClient("sub", ids[2])
	pub.Send(advMsg("a1", "/stock/quote"))
	n.Run()
	n.ResetTraffic()
	sub.Send(subMsg("/weather/report"))
	n.Run()
	if got := n.BrokerReceived()[broker.MsgSubscribe]; got != 1 {
		t.Errorf("subscribe messages = %d, want 1 (edge broker only)", got)
	}
	// A matching subscription travels the full chain: 3 broker receipts.
	sub.Send(subMsg("/stock/quote"))
	n.Run()
	if got := n.BrokerReceived()[broker.MsgSubscribe]; got != 4 {
		t.Errorf("subscribe messages = %d, want 4", got)
	}
}

// TestFloodingWithoutAdvertisements: without advertisements subscriptions
// flood everywhere.
func TestFloodingWithoutAdvertisements(t *testing.T) {
	n := NewNetwork(1)
	BuildCompleteBinaryTree(n, 3, ConfigTemplate(broker.Config{}))
	sub := n.AddClient("sub", "b4")
	sub.Send(subMsg("/x/y"))
	n.Run()
	if got := n.BrokerReceived()[broker.MsgSubscribe]; got != 7 {
		t.Errorf("subscribe receipts = %d, want 7 (flooded)", got)
	}
}

// TestCoveringSuppressesForwarding: a covered subscription stops at the edge
// broker.
func TestCoveringSuppressesForwarding(t *testing.T) {
	n, pub, s1, s2 := buildTriangle(t, broker.Config{UseAdvertisements: true, UseCovering: true})
	pub.Send(advMsg("a1", "/stock/quote/price"))
	n.Run()
	s1.Send(subMsg("/stock"))
	n.Run()
	n.ResetTraffic()
	s2.Send(subMsg("/stock/quote")) // covered by /stock
	n.Run()
	if got := n.BrokerReceived()[broker.MsgSubscribe]; got != 1 {
		t.Errorf("covered subscription forwarded: %d receipts, want 1", got)
	}
	// Both subscribers still receive matching publications.
	pub.Send(pubMsg("stock", "quote", "price"))
	n.Run()
	if len(s1.Deliveries) != 1 || len(s2.Deliveries) != 1 {
		t.Fatalf("deliveries = %d/%d, want 1/1", len(s1.Deliveries), len(s2.Deliveries))
	}
}

// TestCoveringUnsubscribesCovered: when a broader subscription arrives, the
// narrower one is withdrawn upstream and the downstream table shrinks.
func TestCoveringUnsubscribesCovered(t *testing.T) {
	n, pub, s1, s2 := buildTriangle(t, broker.Config{UseAdvertisements: true, UseCovering: true})
	pub.Send(advMsg("a1", "/stock/quote/price"))
	n.Run()
	s1.Send(subMsg("/stock/quote"))
	n.Run()
	b1 := n.Broker("b1")
	if b1.PRTSize() != 1 {
		t.Fatalf("b1 PRT = %d, want 1", b1.PRTSize())
	}
	s2.Send(subMsg("/stock")) // covers /stock/quote
	n.Run()
	// b1's table should hold only the broader subscription now.
	if b1.PRTSize() != 1 {
		t.Fatalf("b1 PRT after covering insert = %d, want 1", b1.PRTSize())
	}
	if b1.PRT().Lookup(xpath.MustParse("/stock")) == nil {
		t.Fatal("b1 lost the covering subscription")
	}
	pub.Send(pubMsg("stock", "quote", "price"))
	n.Run()
	if len(s1.Deliveries) != 1 || len(s2.Deliveries) != 1 {
		t.Fatalf("deliveries = %d/%d, want 1/1", len(s1.Deliveries), len(s2.Deliveries))
	}
}

// TestUnsubscribeReforwardsUncovered: withdrawing a covering subscription
// re-forwards the ones it suppressed.
func TestUnsubscribeReforwardsUncovered(t *testing.T) {
	n, pub, s1, s2 := buildTriangle(t, broker.Config{UseAdvertisements: true, UseCovering: true})
	pub.Send(advMsg("a1", "/stock/quote/price"))
	n.Run()
	s1.Send(subMsg("/stock"))
	n.Run()
	s2.Send(subMsg("/stock/quote")) // suppressed by /stock
	n.Run()
	s1.Send(&broker.Message{Type: broker.MsgUnsubscribe, XPE: xpath.MustParse("/stock")})
	n.Run()
	pub.Send(pubMsg("stock", "quote", "price"))
	n.Run()
	if len(s1.Deliveries) != 0 {
		t.Fatalf("unsubscribed client got %d deliveries", len(s1.Deliveries))
	}
	if len(s2.Deliveries) != 1 {
		t.Fatalf("suppressed subscriber got %d deliveries after uncovering, want 1", len(s2.Deliveries))
	}
}

// TestSubscriptionBeforeAdvertisement: a subscription arriving before the
// advertisement is forwarded once the advertisement shows up.
func TestSubscriptionBeforeAdvertisement(t *testing.T) {
	n, pub, s1, _ := buildTriangle(t, broker.Config{UseAdvertisements: true})
	s1.Send(subMsg("/stock/quote"))
	n.Run()
	pub.Send(advMsg("a1", "/stock/quote/price"))
	n.Run()
	pub.Send(pubMsg("stock", "quote", "price"))
	n.Run()
	if len(s1.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(s1.Deliveries))
	}
}

// TestRecursiveAdvertisementRouting: subscriptions route toward recursive
// advertisements, and pumped publications reach them.
func TestRecursiveAdvertisementRouting(t *testing.T) {
	n, pub, s1, _ := buildTriangle(t, broker.Config{UseAdvertisements: true})
	pub.Send(advMsg("a1", "/doc(/sec)+/p"))
	n.Run()
	s1.Send(subMsg("//sec/p"))
	n.Run()
	pub.Send(pubMsg("doc", "sec", "sec", "sec", "p"))
	n.Run()
	if len(s1.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(s1.Deliveries))
	}
}

// TestDocumentPublication: whole-document publications match any path and
// reach only interested subscribers.
func TestDocumentPublication(t *testing.T) {
	n, pub, s1, s2 := buildTriangle(t, broker.Config{UseAdvertisements: false})
	s1.Send(subMsg("/catalog/book/title"))
	s2.Send(subMsg("/catalog/dvd"))
	n.Run()
	pub.Send(&broker.Message{Type: broker.MsgPublish,
		Raw: []byte(`<catalog><book><title>t</title><author>a</author></book></catalog>`)})
	n.Run()
	if len(s1.Deliveries) != 1 || len(s2.Deliveries) != 0 {
		t.Fatalf("deliveries = %d/%d, want 1/0", len(s1.Deliveries), len(s2.Deliveries))
	}
}

// TestMergingForwardsMergerAndFiltersFalsePositives: with imperfect merging
// the merger travels upstream instead of the sources, and false positives
// are filtered at the edge, never reaching clients.
func TestMergingFalsePositiveFiltering(t *testing.T) {
	cfg := broker.Config{
		UseAdvertisements: false,
		UseCovering:       true,
		Merging:           broker.MergeImperfect,
		ImperfectDegree:   1.0,
		MergeEvery:        2,
	}
	n := NewNetwork(1)
	ids := BuildChain(n, 2, ConfigTemplate(cfg))
	pub := n.AddClient("pub", ids[0])
	sub := n.AddClient("sub", ids[1])
	sub.Send(subMsg("/a/b/c"))
	sub.Send(subMsg("/a/b/d"))
	n.Run()
	// The edge broker merged to /a/b/*; b1 should hold one subscription.
	if got := n.Broker("b1").PRTSize(); got != 1 {
		t.Fatalf("b1 PRT = %d, want 1 (merger)", got)
	}
	// /a/b/x matches the merger but neither original: routed to the edge,
	// filtered there.
	pub.Send(pubMsg("a", "b", "x"))
	pub.Send(pubMsg("a", "b", "c"))
	n.Run()
	if len(sub.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1 (false positive must be filtered)", len(sub.Deliveries))
	}
	if !strings.Contains(sub.Deliveries[0].Pub, "a/b/c") {
		t.Errorf("delivered %s", sub.Deliveries[0].Pub)
	}
	st := n.Broker(ids[1]).Stats()
	if st.FalsePositives != 1 {
		t.Errorf("false positives = %d, want 1", st.FalsePositives)
	}
}

// TestBinaryTreeFanout: a publication reaches every interested leaf in a
// 7-broker tree and nobody else.
func TestBinaryTreeFanout(t *testing.T) {
	n := NewNetwork(3)
	leaves := BuildCompleteBinaryTree(n, 3, ConfigTemplate(broker.Config{UseAdvertisements: true, UseCovering: true}))
	if len(leaves) != 4 {
		t.Fatalf("leaves = %v", leaves)
	}
	pub := n.AddClient("pub", "b1")
	var subs []*Client
	for i, leaf := range leaves {
		c := n.AddClient(fmt.Sprintf("sub%d", i), leaf)
		subs = append(subs, c)
	}
	pub.Send(advMsg("a1", "/x/y/z"))
	n.Run()
	subs[0].Send(subMsg("/x"))
	subs[1].Send(subMsg("/x/y"))
	subs[2].Send(subMsg("/q"))
	n.Run()
	pub.Send(pubMsg("x", "y", "z"))
	n.Run()
	for i, want := range []int{1, 1, 0, 0} {
		if len(subs[i].Deliveries) != want {
			t.Errorf("sub%d deliveries = %d, want %d", i, len(subs[i].Deliveries), want)
		}
	}
}

// TestDeterminism: identical runs produce identical traffic and delays.
func TestDeterminism(t *testing.T) {
	run := func() (int64, time.Duration) {
		n := NewNetwork(42)
		n.Latency = UniformLatency{Min: time.Millisecond, Max: 5 * time.Millisecond}
		ids := BuildChain(n, 4, ConfigTemplate(broker.Config{UseAdvertisements: true, UseCovering: true}))
		pub := n.AddClient("pub", ids[0])
		sub := n.AddClient("sub", ids[3])
		pub.Send(advMsg("a1", "/a/b/c"))
		n.Run()
		sub.Send(subMsg("/a/b"))
		n.Run()
		pub.Send(pubMsg("a", "b", "c"))
		n.Run()
		return n.TotalBrokerMessages(), sub.Deliveries[0].Delay
	}
	m1, d1 := run()
	m2, d2 := run()
	if m1 != m2 || d1 != d2 {
		t.Errorf("non-deterministic: msgs %d/%d delay %v/%v", m1, m2, d1, d2)
	}
}

func TestLatencyModels(t *testing.T) {
	n := NewNetwork(7)
	r := n.rand
	c := ConstantLatency(2 * time.Millisecond)
	if c.Latency("a", "b", r) != 2*time.Millisecond {
		t.Error("constant latency wrong")
	}
	u := UniformLatency{Min: time.Millisecond, Max: 3 * time.Millisecond}
	for i := 0; i < 100; i++ {
		l := u.Latency("a", "b", r)
		if l < u.Min || l > u.Max {
			t.Fatalf("uniform latency %v out of range", l)
		}
	}
	p := PlanetLabLatency{Median: 2 * time.Millisecond, Sigma: 0.15}
	var total time.Duration
	for i := 0; i < 2000; i++ {
		total += p.Latency("a", "b", r)
	}
	mean := total / 2000
	if mean < 1500*time.Microsecond || mean > 2500*time.Microsecond {
		t.Errorf("PlanetLab mean latency = %v, want ~2ms", mean)
	}
}

// The transfer delay is what the link's encoder writes, divided by the
// bandwidth: a link's first frame carries its dictionary, a repeat reuses
// it, and a healed link starts over with an empty one.
func TestTransferDelay(t *testing.T) {
	n := NewNetwork(1)
	n.Bandwidth = 1e6 // 1 MB/s
	n.AddBroker(broker.Config{ID: "b1"})
	n.AddBroker(broker.Config{ID: "b2"})
	n.Connect("b1", "b2")
	delay := func(bytes int) time.Duration {
		return time.Duration(float64(bytes) / 1e6 * float64(time.Second))
	}
	// encoded returns the bytes a fresh encoder writes for each message in
	// turn.
	encoded := func(ms ...*broker.Message) []int {
		var buf bytes.Buffer
		enc := wirefmt.NewEncoder(&buf, wirefmt.DefaultLimits)
		out := make([]int, len(ms))
		for i, m := range ms {
			buf.Reset()
			if err := enc.Encode(m); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Len()
		}
		return out
	}

	raw := []byte(`<a><b>` + strings.Repeat("x", 10000) + `</b></a>`)
	doc := &broker.Message{Type: broker.MsgPublish, Raw: raw}
	if got, want := n.transfer(n.link("b1", "b2"), doc), delay(encoded(doc)[0]); got != want {
		t.Errorf("raw document: transfer = %v, want %v (fresh encoder bytes)", got, want)
	}

	sub := subMsg("/nitf/head/title")
	sizes := encoded(sub, sub)
	cold := n.transfer(n.link("b2", "b1"), sub)
	warm := n.transfer(n.link("b2", "b1"), sub)
	if cold != delay(sizes[0]) || warm != delay(sizes[1]) {
		t.Errorf("subscription: transfer %v then %v, want %v then %v", cold, warm, delay(sizes[0]), delay(sizes[1]))
	}
	if warm >= cold {
		t.Errorf("repeat on a warm link costs %v, not less than the first send's %v", warm, cold)
	}

	n.applyFault(&faultinject.Event{Kind: faultinject.KindPartition, A: "b1", B: "b2"})
	n.applyFault(&faultinject.Event{Kind: faultinject.KindHeal, A: "b1", B: "b2"})
	if got := n.transfer(n.link("b2", "b1"), sub); got != cold {
		t.Errorf("after heal: transfer = %v, want the cold link's %v", got, cold)
	}
}
