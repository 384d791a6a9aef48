package broker

import (
	"testing"

	"repro/internal/advert"
	"repro/internal/dtd"
	"repro/internal/merge"
	"repro/internal/xpath"
)

// TestMergePassNetworkOperations verifies the message-level protocol of a
// merge pass: the sources are withdrawn from the hops they were forwarded
// to and the merger is subscribed instead, carrying the union of last hops.
func TestMergePassNetworkOperations(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (s)>
<!ELEMENT s (x | y | z)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
<!ELEMENT z (#PCDATA)>
`)
	advs, err := advert.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	est := merge.NewDegreeEstimator(advs, 10, 100)

	b, cap := newTestBroker(Config{
		UseAdvertisements: true,
		UseCovering:       true,
		Merging:           MergePerfect,
		Estimator:         est,
		MergeEvery:        3,
	})
	b.AddNeighbor("up")
	for i, a := range advs {
		b.HandleMessage(&Message{Type: MsgAdvertise, AdvID: string(rune('a' + i)), Adv: a}, "up")
	}
	b.AddClient("c1")
	b.AddClient("c2")

	// All three siblings of s: a perfect merger /r/s/*.
	b.HandleMessage(sub("/r/s/x"), "c1")
	b.HandleMessage(sub("/r/s/y"), "c2")
	b.HandleMessage(sub("/r/s/z"), "c1") // third insert triggers the pass

	if got := b.Stats().Mergers; got != 1 {
		t.Fatalf("mergers = %d, want 1", got)
	}
	merged := xpath.MustParse("/r/s/*")
	node := b.PRT().Lookup(merged)
	if node == nil {
		t.Fatalf("merger not in PRT:\n%s", b.PRT())
	}
	st := stateOf(node)
	if !st.lastHops.has("c1") || !st.lastHops.has("c2") {
		t.Errorf("merger lastHops = %v, want union of sources'", st.lastHops)
	}
	// Wire protocol: three subscribes up, then three unsubscribes for the
	// sources and one subscribe for the merger.
	var unsubs, mergerSubs int
	for _, sent := range cap.sent {
		switch sent.msg.Type {
		case MsgUnsubscribe:
			unsubs++
		case MsgSubscribe:
			if sent.msg.XPE.Equal(merged) {
				mergerSubs++
			}
		}
	}
	if unsubs != 3 {
		t.Errorf("unsubscribes = %d, want 3", unsubs)
	}
	if mergerSubs != 1 {
		t.Errorf("merger subscribes = %d, want 1", mergerSubs)
	}
	// The sources are gone from the PRT; the merger remains.
	if b.PRTSize() != 1 {
		t.Errorf("PRT size = %d, want 1:\n%s", b.PRTSize(), b.PRT())
	}
}

// TestImperfectMergeGate: with a zero tolerance an imperfect candidate stays
// unmerged; raising the tolerance merges it.
func TestImperfectMergeGate(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (s)>
<!ELEMENT s (x | y | z)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
<!ELEMENT z (#PCDATA)>
`)
	advs, err := advert.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	est := merge.NewDegreeEstimator(advs, 10, 100)

	for _, tc := range []struct {
		degree float64
		want   int64
	}{{0, 0}, {0.5, 1}} {
		b, _ := newTestBroker(Config{
			UseCovering:     true,
			Merging:         MergeImperfect,
			ImperfectDegree: tc.degree,
			Estimator:       est,
			MergeEvery:      2,
		})
		b.AddClient("c1")
		// Two of three siblings: degree 1/3.
		b.HandleMessage(sub("/r/s/x"), "c1")
		b.HandleMessage(sub("/r/s/y"), "c1")
		if got := b.Stats().Mergers; got != tc.want {
			t.Errorf("degree %.1f: mergers = %d, want %d", tc.degree, got, tc.want)
		}
	}
}
