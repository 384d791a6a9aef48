package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// startChain boots n brokers connected in a chain over loopback TCP and
// returns their addresses.
func startChain(t *testing.T, n int, cfg broker.Config) []*Server {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	// Two passes: addresses must exist before neighbours maps are built, so
	// listeners are bound first with empty neighbour maps filled after.
	neighbors := make([]map[string]string, n)
	for i := range servers {
		neighbors[i] = make(map[string]string)
	}
	for i := range servers {
		c := cfg
		c.ID = fmt.Sprintf("b%d", i+1)
		servers[i] = NewServer(c, neighbors[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(servers[i].Close)
	}
	for i := range servers {
		if i > 0 {
			neighbors[i][fmt.Sprintf("b%d", i)] = addrs[i-1]
			servers[i].b.AddNeighbor(fmt.Sprintf("b%d", i))
		}
		if i < n-1 {
			neighbors[i][fmt.Sprintf("b%d", i+2)] = addrs[i+1]
			servers[i].b.AddNeighbor(fmt.Sprintf("b%d", i+2))
		}
	}
	return servers
}

func TestEndToEndOverTCP(t *testing.T) {
	servers := startChain(t, 3, broker.Config{UseAdvertisements: true, UseCovering: true})
	pubAddr := servers[0].ln.Addr().String()
	subAddr := servers[2].ln.Addr().String()

	pub, err := Dial(pubAddr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(subAddr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: "a1", Adv: advert.MustParse("/stock/quote/price")}); err != nil {
		t.Fatal(err)
	}
	// Give the flood a moment to traverse the chain before subscribing.
	waitFor(t, func() bool { return servers[2].SRTSize() == 1 })

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })

	if err := pub.Send(&broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"stock", "quote", "price"}},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pub.Path) != 3 || m.Pub.Path[0] != "stock" {
		t.Errorf("delivered %v", m.Pub)
	}
	if m.Stamp == 0 {
		t.Error("publication stamp missing")
	}
}

func TestNonMatchingSubscriberGetsNothing(t *testing.T) {
	servers := startChain(t, 2, broker.Config{})
	sub, err := Dial(servers[1].ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(servers[0].ln.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/none")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })
	if err := pub.Send(&broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{Path: []string{"stock", "quote"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitDelivery(300 * time.Millisecond); err == nil {
		t.Error("non-matching subscriber received a publication")
	}
}

func TestWholeDocumentOverTCP(t *testing.T) {
	servers := startChain(t, 2, broker.Config{})
	sub, err := Dial(servers[1].ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(servers[0].ln.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("//title")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })
	raw := []byte(`<catalog><book><title>Go</title></book></catalog>`)
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: raw}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Raw, raw) {
		t.Errorf("delivered %v", m)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
