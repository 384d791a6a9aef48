package transport

import (
	"fmt"
	"sync"
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

	srv := NewServerOptions(broker.Config{ID: "b1"}, nil, Options{Workers: 4})
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
