package broker_test

import (
	"fmt"
	"testing"

	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/experiment"
)

// TestSetBExactChecksPerSubscription counts the work the advertisement index
// leaves to the exact overlap check: a broker holding the 3,692 NITF
// advertisements from one neighbour takes the 2,000 Set B subscriptions from
// a client, and per subscription runs at most 10 exact checks on average. A
// linear SRT scan runs one per advertisement until the first overlap, about
// a thousand.
func TestSetBExactChecksPerSubscription(t *testing.T) {
	nitf := dtddata.NITF()
	setB, err := experiment.BuildCoveringSet(nitf, 2000, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := broker.New(broker.Config{ID: "b3", UseAdvertisements: true, UseCovering: true},
		func(string, *broker.Message) {})
	b.AddNeighbor("b2")
	b.AddClient("sub")
	for i, a := range experiment.GenerateAdvertisements(nitf) {
		b.HandleMessage(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a}, "b2")
	}
	before := b.ExactOverlapChecks()
	for _, x := range setB.XPEs {
		b.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "sub")
	}
	mean := float64(b.ExactOverlapChecks()-before) / float64(len(setB.XPEs))
	t.Logf("%.2f exact overlap checks per Set B subscription over %d advertisements", mean, b.SRTSize())
	if mean > 10 {
		t.Errorf("%.1f exact overlap checks per Set B subscription, want at most 10", mean)
	}
}
