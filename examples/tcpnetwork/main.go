// TCP network: the same dissemination system over real sockets — a
// three-broker chain on localhost, one publisher, one subscriber. This is
// the deployment mode the paper ran on its cluster and PlanetLab.
package main

import (
	"fmt"
	"log"
	"time"

	xmlrouter "repro"
)

const recipeDTD = `
<!ELEMENT cookbook (recipe+)>
<!ELEMENT recipe (title, ingredient+, step+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT ingredient (#PCDATA)>
<!ELEMENT step (#PCDATA)>
`

func main() {
	cfg := xmlrouter.BrokerConfig{UseAdvertisements: true, UseCovering: true}

	// Boot three brokers on ephemeral ports, then link them b1-b2-b3.
	mk := func(id string, neighbors map[string]string) (*xmlrouter.BrokerServer, string) {
		c := cfg
		c.ID = id
		srv := xmlrouter.NewBrokerServer(c, neighbors)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		return srv, addr
	}
	n1, n2, n3 := map[string]string{}, map[string]string{}, map[string]string{}
	b1, a1 := mk("b1", n1)
	b2, a2 := mk("b2", n2)
	b3, a3 := mk("b3", n3)
	defer b1.Close()
	defer b2.Close()
	defer b3.Close()
	n1["b2"] = a2
	n2["b1"], n2["b3"] = a1, a3
	n3["b2"] = a2
	b1.Broker().AddNeighbor("b2")
	b2.Broker().AddNeighbor("b1")
	b2.Broker().AddNeighbor("b3")
	b3.Broker().AddNeighbor("b2")
	fmt.Printf("brokers: b1=%s b2=%s b3=%s\n", a1, a2, a3)

	publisher, err := xmlrouter.DialBroker(a1, "publisher")
	if err != nil {
		log.Fatal(err)
	}
	defer publisher.Close()
	subscriber, err := xmlrouter.DialBroker(a3, "subscriber")
	if err != nil {
		log.Fatal(err)
	}
	defer subscriber.Close()

	dtd, err := xmlrouter.ParseDTD(recipeDTD)
	if err != nil {
		log.Fatal(err)
	}
	advs, err := xmlrouter.GenerateAdvertisements(dtd)
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range advs {
		if err := publisher.Send(&xmlrouter.Message{
			Type: xmlrouter.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a,
		}); err != nil {
			log.Fatal(err)
		}
	}
	waitFor(func() bool { return b3.SRTSize() > 0 })
	fmt.Printf("advertised %d patterns; SRT reached the far broker\n", len(advs))

	if err := subscriber.Send(&xmlrouter.Message{
		Type: xmlrouter.MsgSubscribe, XPE: xmlrouter.MustParseXPE("/cookbook/recipe//ingredient"),
	}); err != nil {
		log.Fatal(err)
	}
	waitFor(func() bool { return b1.PRTSize() > 0 })
	fmt.Println("subscription propagated back to the publisher's broker")

	recipe := []byte(`<cookbook><recipe><title>Toast</title><ingredient>bread</ingredient><step>toast it</step></recipe></cookbook>`)
	if err := publisher.Send(&xmlrouter.Message{Type: xmlrouter.MsgPublish, Raw: recipe}); err != nil {
		log.Fatal(err)
	}
	m, err := subscriber.WaitDelivery(5 * time.Second)
	if err != nil {
		log.Fatal(err)
	}
	delay := time.Since(time.Unix(0, m.Stamp)).Round(time.Microsecond)
	doc, err := xmlrouter.ParseDocument(m.Raw) // the subscriber's own tree
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscriber received <%s> after %v over 3 TCP hops\n", doc.Root.Name, delay)
}

func waitFor(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("timed out waiting for propagation")
}
