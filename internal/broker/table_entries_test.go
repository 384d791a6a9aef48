package broker_test

import (
	"testing"

	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/experiment"
)

// TestEdgeTableHoldsUncoveredOnly pins the matching table of an edge broker
// loaded like cmd/xload's b3: one client registers a whole covering set. A
// covered subscription adds no destination to its coverer, and the PRT node
// of a client's own subscription matches it for the client, so the table
// holds one entry per uncovered subscription — 100 for Set A (1,000 at 90%
// covering) and 1,000 for Set B (2,000 at 50%), where one entry per PRT node
// plus one filter entry per subscription would hold 2,000 and 4,000.
func TestEdgeTableHoldsUncoveredOnly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		covered float64
		want    int
	}{
		{"setA", 1000, 0.9, 100},
		{"setB", 2000, 0.5, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := experiment.BuildCoveringSet(dtddata.NITF(), tc.n, tc.covered, 1)
			if err != nil {
				t.Fatal(err)
			}
			b := broker.New(broker.Config{ID: "b3", UseAdvertisements: true, UseCovering: true, ImperfectDegree: 0.1},
				func(string, *broker.Message) {})
			b.AddNeighbor("b2")
			b.AddClient("sub")
			for _, x := range set.XPEs {
				b.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "sub")
			}
			if got := len(experiment.Uncovered(set.XPEs)); got != tc.want {
				t.Fatalf("%d uncovered subscriptions in the set, want %d", got, tc.want)
			}
			if got := b.NFAStats().Entries; got != tc.want {
				t.Errorf("%d matching-table entries, want %d (one per uncovered subscription)", got, tc.want)
			}
		})
	}
}
