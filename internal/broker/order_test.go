package broker

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/advert"
	"repro/internal/dtd"
	"repro/internal/merge"
)

// TestControlOrderIsFixed drives one covering-heavy control sequence on a
// broker with four neighbours — subscriptions forwarded to several hops,
// covered withdrawals, a second direction, unsubscribes that uncover, and
// periodic merge passes — and requires the emitted (hop, type, XPE)
// sequence to be the same on every run, followed by the resync payload it
// then owes each neighbour. The PRT's hop sets are ranged in hop order and
// resync lists advertisements by ID, so nothing here may depend on map
// iteration order.
func TestControlOrderIsFixed(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT r (s | t)*>
<!ELEMENT s (x | y | z)>
<!ELEMENT t (x | y)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y (#PCDATA)>
<!ELEMENT z (#PCDATA)>
`)
	advs, err := advert.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	est := merge.NewDegreeEstimator(advs, 10, 100)
	neighbours := []string{"n4", "n2", "n3", "n1"}

	run := func() []string {
		b, cap := newTestBroker(Config{
			UseAdvertisements: true,
			UseCovering:       true,
			Merging:           MergePerfect,
			Estimator:         est,
			MergeEvery:        4,
		})
		for _, nb := range neighbours {
			b.AddNeighbor(nb)
		}
		b.AddClient("c1")
		b.AddClient("c2")
		for _, nb := range neighbours {
			for i, a := range advs {
				b.HandleMessage(&Message{Type: MsgAdvertise, AdvID: fmt.Sprintf("%s-%d", nb, i), Adv: a}, nb)
			}
		}
		cap.sent = nil // the advertisement floods follow the neighbour list
		// Subscriptions from clients and from neighbours (second
		// directions included), coverers arriving and leaving, and a merge
		// pass every fourth subscribe.
		steps := []struct {
			msg  *Message
			from string
		}{
			{sub("/r/s/x"), "c1"},
			{sub("/r/t/x"), "c2"},
			{sub("/r/s/y"), "n1"},
			{sub("/r/s/y"), "n2"},
			{sub("/r/*/x"), "c1"},
			{sub("/r/s/z"), "c2"},
			{unsubM("/r/s/y"), "n1"},
			{sub("/r//x"), "c2"},
			{unsubM("/r//x"), "c2"},
			{sub("/r/t/y"), "n3"},
			{unsubM("/r/*/x"), "c1"},
			{sub("/r/*"), "c1"},
			{unsubM("/r/s/z"), "c2"},
			{unsubM("/r/*"), "c1"},
			{sub("/r/t/x"), "n4"},
			{unsubM("/r/t/x"), "c2"},
			{sub("//x"), "c1"},
			{unsubM("/r/t/y"), "n3"},
			{unsubM("//x"), "c1"},
			{sub("/r/s/*"), "c2"},
		}
		for _, s := range steps {
			b.HandleMessage(s.msg, s.from)
		}
		for _, nb := range neighbours {
			b.ResyncFor(nb)
		}
		out := make([]string, len(cap.sent))
		for i, s := range cap.sent {
			out[i] = fmt.Sprintf("%s %s %s", s.to, s.msg.Type, s.msg.XPE)
			if r := s.msg.Resync; r != nil {
				for _, a := range r.Advs {
					out[i] += fmt.Sprintf(" %s=%v", a.ID, a.Adv)
				}
				out[i] += fmt.Sprint(" ", r.Subs)
			}
		}
		return out
	}

	first := run()
	// Every hop must see traffic for the sequence to test hop order.
	for _, nb := range neighbours {
		if !slices.ContainsFunc(first, func(s string) bool { return s[:len(nb)+1] == nb+" " }) {
			t.Fatalf("no control message reached %s:\n%v", nb, first)
		}
	}
	for i := 1; i < 20; i++ {
		if got := run(); !slices.Equal(got, first) {
			t.Fatalf("run %d emitted a different sequence:\n%v\nfirst run:\n%v", i, got, first)
		}
	}
}
