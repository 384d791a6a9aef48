// Quickstart: a three-broker chain in the in-process simulator. A producer
// advertises a tiny stock-feed DTD, two consumers register XPath
// subscriptions, and a document is routed to exactly the interested one.
package main

import (
	"fmt"
	"log"

	xmlrouter "repro"
)

const stockDTD = `
<!ELEMENT feed (stock+)>
<!ELEMENT stock (symbol, quote, volume?)>
<!ELEMENT symbol (#PCDATA)>
<!ELEMENT quote (price, currency?)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT currency (#PCDATA)>
<!ELEMENT volume (#PCDATA)>
`

const stockDoc = `<feed><stock><symbol>ACME</symbol><quote><price>42.10</price></quote></stock></feed>`

func main() {
	// 1. An overlay of three brokers in a chain, with advertisement-based
	//    routing and covering enabled.
	net := xmlrouter.NewNetwork(1)
	ids := xmlrouter.BuildChain(net, 3, xmlrouter.BrokerConfig{
		UseAdvertisements: true,
		UseCovering:       true,
	})

	producer := net.AddClient("producer", ids[0])
	priceWatcher := net.AddClient("price-watcher", ids[2])
	newsWatcher := net.AddClient("news-watcher", ids[2])

	// 2. The producer floods advertisements derived from its DTD.
	dtd, err := xmlrouter.ParseDTD(stockDTD)
	if err != nil {
		log.Fatal(err)
	}
	advs, err := xmlrouter.GenerateAdvertisements(dtd)
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range advs {
		producer.Send(&xmlrouter.Message{Type: xmlrouter.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a})
	}
	net.Run()
	fmt.Printf("producer advertised %d path patterns\n", len(advs))

	// 3. Consumers subscribe with XPath. The price watcher's query matches
	//    the feed; the news watcher's does not, so advertisement-based
	//    routing never forwards it into the network.
	priceWatcher.Send(&xmlrouter.Message{Type: xmlrouter.MsgSubscribe, XPE: xmlrouter.MustParseXPE("/feed/stock//price")})
	newsWatcher.Send(&xmlrouter.Message{Type: xmlrouter.MsgSubscribe, XPE: xmlrouter.MustParseXPE("/news/headline")})
	net.Run()

	// 4. Publish a document as its XML bytes; it travels the chain to the
	//    interested client.
	producer.Send(&xmlrouter.Message{Type: xmlrouter.MsgPublish, Raw: []byte(stockDoc)})
	net.Run()

	fmt.Printf("price-watcher deliveries: %d (delay %v)\n",
		len(priceWatcher.Deliveries), priceWatcher.Deliveries[0].Delay)
	fmt.Printf("news-watcher deliveries:  %d\n", len(newsWatcher.Deliveries))
	fmt.Printf("messages received by brokers: %d\n", net.TotalBrokerMessages())
}
