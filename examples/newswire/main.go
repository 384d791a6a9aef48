// Newswire: the paper's motivating scenario at small scale. A news agency
// publishes NITF articles into a 7-broker dissemination tree; bureaus
// subscribe with overlapping XPath interests. The example contrasts routing
// state and traffic with and without the covering optimisation.
package main

import (
	"fmt"

	xmlrouter "repro"
	"repro/internal/broker"
)

func main() {
	for _, covering := range []bool{false, true} {
		subMsgs, pubMsgs, tableSizes := run(covering)
		mode := "without covering"
		if covering {
			mode = "with covering"
		}
		fmt.Printf("%-17s subscription messages: %3d   publish messages: %4d   PRT sizes per broker: %v\n",
			mode, subMsgs, pubMsgs, tableSizes)
	}
}

func run(covering bool) (int64, int64, []int) {
	net := xmlrouter.NewNetwork(7)
	leaves := xmlrouter.BuildCompleteBinaryTree(net, 3, xmlrouter.BrokerConfig{
		UseAdvertisements: true,
		UseCovering:       covering,
	})

	agency := net.AddClient("agency", "b1")
	advs, err := xmlrouter.GenerateAdvertisements(xmlrouter.NITF())
	if err != nil {
		panic(err)
	}
	for i, a := range advs {
		agency.Send(&xmlrouter.Message{Type: xmlrouter.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a})
	}
	net.Run()

	// Four bureaus with overlapping editorial interests: the sports desk's
	// queries are mostly refinements of the politics desk's broad ones, so
	// covering has something to remove.
	interests := [][]string{
		{"/nitf/body//p", "/nitf/body/body.head/hedline/hl1", "//byline/person"},
		{"/nitf/body//p/em", "/nitf/body/body.head/hedline/*", "//person"},
		{"//block/p", "/nitf/head/docdata/key-list/keyword", "//abstract/p"},
		{"//p", "/nitf/head/title", "/nitf/body/body.content/block/media/media-caption"},
	}
	for i, leaf := range leaves {
		bureau := net.AddClient(fmt.Sprintf("bureau%d", i), leaf)
		for _, q := range interests[i%len(interests)] {
			bureau.Send(&xmlrouter.Message{Type: xmlrouter.MsgSubscribe, XPE: xmlrouter.MustParseXPE(q)})
		}
	}
	net.Run()

	// A day's worth of wire stories.
	gen := xmlrouter.NewDocGenerator(xmlrouter.NITF(), 99)
	for i := 0; i < 20; i++ {
		agency.Send(&xmlrouter.Message{Type: xmlrouter.MsgPublish, Raw: gen.Generate().Marshal()})
	}
	net.Run()

	var tables []int
	for i := 1; i <= 7; i++ {
		tables = append(tables, net.Broker(fmt.Sprintf("b%d", i)).PRTSize())
	}
	byType := net.BrokerReceived()
	return byType[broker.MsgSubscribe], byType[broker.MsgPublish], tables
}
