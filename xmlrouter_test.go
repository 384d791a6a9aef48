package xmlrouter

import (
	"fmt"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	dtdText := `
<!ELEMENT shop (item+)>
<!ELEMENT item (name, price)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
`
	d, err := ParseDTD(dtdText)
	if err != nil {
		t.Fatal(err)
	}
	advs, err := GenerateAdvertisements(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 2 {
		t.Fatalf("advertisements = %d, want 2", len(advs))
	}

	net := NewNetwork(1)
	ids := BuildChain(net, 2, BrokerConfig{UseAdvertisements: true, UseCovering: true})
	pub := net.AddClient("pub", ids[0])
	sub := net.AddClient("sub", ids[1])
	for i, a := range advs {
		pub.Send(&Message{Type: MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a})
	}
	net.Run()
	sub.Send(&Message{Type: MsgSubscribe, XPE: MustParseXPE("/shop/item/price")})
	net.Run()

	doc, err := ParseDocument([]byte(`<shop><item><name>pen</name><price>2</price></item></shop>`))
	if err != nil {
		t.Fatal(err)
	}
	pub.Send(&Message{Type: MsgPublish, Raw: doc.Marshal()})
	net.Run()
	if len(sub.Deliveries) != 1 {
		t.Fatalf("deliveries = %d", len(sub.Deliveries))
	}
}

func TestPublicAlgorithms(t *testing.T) {
	s1 := MustParseXPE("/a//c")
	s2 := MustParseXPE("/a/b/c")
	if !Covers(s1, s2) {
		t.Error("Covers(/a//c, /a/b/c) should hold")
	}
	a, err := ParseAdvertisement("/a(/b)+/c")
	if err != nil {
		t.Fatal(err)
	}
	if !Overlaps(a, MustParseXPE("//b/c")) {
		t.Error("Overlaps should hold")
	}
	m, ok := MergeSubscriptions([]*XPE{MustParseXPE("/a/b/c"), MustParseXPE("/a/b/d")}, false)
	if !ok || m.String() != "/a/b/*" {
		t.Errorf("MergeSubscriptions = %v (%v)", m, ok)
	}
}

func TestPublicCorporaAndGenerators(t *testing.T) {
	if NITF().Root != "nitf" || PSD().Root != "ProteinDatabase" {
		t.Fatal("embedded corpora misconfigured")
	}
	xg := NewXPathGenerator(PSD(), 0.2, 0.1, 1)
	if xg.Generate().Len() == 0 {
		t.Error("empty generated XPE")
	}
	dg := NewDocGenerator(PSD(), 1)
	doc := dg.Generate()
	if doc.Root.Name != "ProteinDatabase" {
		t.Errorf("generated root = %s", doc.Root.Name)
	}
	pubs := ExtractPublications(doc, 1)
	if len(pubs) == 0 {
		t.Error("no publications extracted")
	}
}
