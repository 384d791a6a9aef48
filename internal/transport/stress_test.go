package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// stressPaths mixes matching and non-matching publication paths for the
// stable subscription "/stock//price".
var stressPaths = [][]string{
	{"stock", "quote", "price"},
	{"stock", "price"},
	{"stock", "quote", "volume"},
	{"weather", "report"},
	{"stock", "index", "price"},
}

// sequentialDeliverySet routes the same workload through a bare broker one
// message at a time — the reference run the concurrent transport must match.
func sequentialDeliverySet(stable *xpath.XPE, pubs []xmldoc.Publication) map[uint64]bool {
	delivered := make(map[uint64]bool)
	b := broker.New(broker.Config{ID: "ref"}, func(to string, m *broker.Message) {
		if to == "stable" && m.Type == broker.MsgPublish {
			delivered[m.Pub.DocID] = true
		}
	})
	b.AddClient("stable")
	b.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: stable}, "stable")
	for i := range pubs {
		b.HandleMessage(&broker.Message{Type: broker.MsgPublish, Pub: pubs[i]}, "producer")
	}
	return delivered
}

// TestConcurrentPublishStress drives one TCP broker with several concurrent
// publisher connections while another connection churns subscriptions, and
// asserts the delivery-equivalence invariant: the stable subscriber receives
// exactly the publication set of a sequential run — every matching
// publication exactly once, no duplicates, no strays. Run with -race: this
// test is the transport's main concurrency safety net.
func TestConcurrentPublishStress(t *testing.T) {
	const (
		publishers   = 6
		pubsPerConn  = 120
		churnRounds  = 150
		totalPubs    = publishers * pubsPerConn
		stableSubExp = "/stock//price"
	)
	stable := xpath.MustParse(stableSubExp)

	// Build the full publication list up front: publisher p sends DocIDs
	// p*pubsPerConn+1 ... (p+1)*pubsPerConn.
	var pubs []xmldoc.Publication
	for p := 0; p < publishers; p++ {
		for i := 0; i < pubsPerConn; i++ {
			id := uint64(p*pubsPerConn + i + 1)
			pubs = append(pubs, xmldoc.Publication{
				DocID: id,
				Path:  stressPaths[int(id)%len(stressPaths)],
			})
		}
	}
	want := sequentialDeliverySet(stable, pubs)
	if len(want) == 0 {
		t.Fatal("workload broken: sequential run delivered nothing")
	}

	srv := NewServer(broker.Config{ID: "b1"}, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sub, err := Dial(addr, "stable")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: stable}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.PRTSize() == 1 })

	// Subscription churn on a separate connection: control-plane writes
	// interleave with the publish data plane. The churned expressions never
	// match the publication paths, so the stable set is unaffected.
	churnDone := make(chan error, 1)
	go func() {
		c, err := Dial(addr, "churn")
		if err != nil {
			churnDone <- err
			return
		}
		defer c.Close()
		for i := 0; i < churnRounds; i++ {
			x := xpath.MustParse(fmt.Sprintf("/churn/e%d", i%13))
			if err := c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: x}); err != nil {
				churnDone <- err
				return
			}
			if err := c.Send(&broker.Message{Type: broker.MsgUnsubscribe, XPE: x}); err != nil {
				churnDone <- err
				return
			}
		}
		churnDone <- nil
	}()

	var wg sync.WaitGroup
	pubErrs := make(chan error, publishers)
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c, err := Dial(addr, fmt.Sprintf("pub%d", p))
			if err != nil {
				pubErrs <- err
				return
			}
			defer c.Close()
			for i := 0; i < pubsPerConn; i++ {
				if err := c.Send(&broker.Message{Type: broker.MsgPublish, Pub: pubs[p*pubsPerConn+i]}); err != nil {
					pubErrs <- err
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(pubErrs)
	for err := range pubErrs {
		t.Fatal(err)
	}
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}

	// Collect until the expected set is complete, then linger briefly to
	// catch duplicates or strays.
	got := make(map[uint64]int)
	deadline := time.After(20 * time.Second)
	for len(got) < len(want) {
		select {
		case m, ok := <-sub.Deliveries:
			if !ok {
				t.Fatal("subscriber connection closed early")
			}
			got[m.Pub.DocID]++
		case <-deadline:
			t.Fatalf("timeout: received %d distinct publications, want %d", len(got), len(want))
		}
	}
drain:
	for {
		select {
		case m := <-sub.Deliveries:
			got[m.Pub.DocID]++
		case <-time.After(300 * time.Millisecond):
			break drain
		}
	}

	for id := range want {
		switch got[id] {
		case 1:
		case 0:
			t.Errorf("publication doc%d never delivered", id)
		default:
			t.Errorf("publication doc%d delivered %d times", id, got[id])
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("stray delivery doc%d (does not match %s)", id, stableSubExp)
		}
	}
	if high := srv.InFlight.High(); high < 1 {
		t.Errorf("InFlight high-water = %d, want >= 1", high)
	}
	if n := srv.InFlight.Load(); n != 0 {
		t.Errorf("InFlight after drain = %d, want 0", n)
	}
}

// floodDoc is a raw document of about 4 KB that "/a" and "/a/b" select.
func floodDoc() []byte {
	var b bytes.Buffer
	b.WriteString("<a>")
	for b.Len() < 4<<10 {
		b.WriteString("<b>0123456789abcdef0123456789abcdef</b>")
	}
	b.WriteString("</a>")
	return b.Bytes()
}

// smallSocketBuffers caps a connection's kernel socket buffers at 64 KiB,
// so a reader that stops reading backs its peer up into the send queue
// after a few dozen frames rather than after megabytes. Options stay
// default otherwise.
func smallSocketBuffers(c net.Conn) net.Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(64 << 10)
		tc.SetWriteBuffer(64 << 10)
	}
	return c
}

// TestBidirectionalFloodDoesNotStall floods raw documents across one link
// in both directions at once: a publisher and a subscriber on each of two
// brokers. Every publication crosses the link, so each broker's link read
// loop matches traffic that goes out to a local client, while its clients'
// publications go out on the link. A broker whose link read loop can wait on
// a goroutine that itself waits on the full link queue stalls here for good,
// on both sides. The publisher ids are chosen so that a matching pool of two
// workers, keyed by an FNV hash of the source id, would put each publisher
// on the same worker as its broker's link.
func TestBidirectionalFloodDoesNotStall(t *testing.T) {
	const docs = 1000
	opts := Options{ConnWrap: smallSocketBuffers}
	s1, s2, addrs := startPair(t, broker.Config{}, opts, opts)
	var subs [2]*Client
	for i, x := range []string{"/a", "/a/b"} {
		c, err := Dial(addrs[i], fmt.Sprintf("s%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(x)}); err != nil {
			t.Fatal(err)
		}
		subs[i] = c
	}
	waitFor(t, func() bool { return s1.PRTSize() == 2 && s2.PRTSize() == 2 })

	var got [2]atomic.Int64
	for i, c := range subs {
		go func() {
			for range c.Deliveries {
				got[i].Add(1)
			}
		}()
	}
	raw := floodDoc()
	errs := make(chan error, 2)
	for i, id := range []string{"p2", "p1"} {
		pub, err := Dial(addrs[i], id)
		if err != nil {
			t.Fatal(err)
		}
		defer pub.Close()
		go func() {
			for n := 0; n < docs; n++ {
				m := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(n)}, Raw: raw}
				if err := pub.Send(m); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}

	deadline := time.Now().Add(10 * time.Second)
	for got[0].Load() < 2*docs || got[1].Load() < 2*docs {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			// Where the publications went: queued, dropped on a down link,
			// or lost with a replaced connection.
			q1, q2 := s1.QueueDepths(), s2.QueueDepths()
			h1, h2 := s1.Health(), s2.Health()
			l1, l2 := s1.Links(), s2.Links()
			// Closing the servers first frees a publisher blocked in Send.
			s1.Close()
			s2.Close()
			t.Fatalf("flood stalled: subscribers got %d and %d of %d; send queues %v and %v; "+
				"b1 health %+v links %+v; b2 health %+v links %+v",
				got[0].Load(), got[1].Load(), 2*docs, q1, q2, h1, l1, h2, l2)
		}
	}
}
