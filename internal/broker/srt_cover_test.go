package broker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtddata"
)

// refSRT is advertisement covering as the linear scan it is defined by:
// a new non-recursive advertisement whose ID is new is dropped, its ID
// remembered as an alias, when an earlier SRT entry from the same hop
// covers it; the first such entry in SRT order takes the ID. It reads
// advertisements through String and IsRecursive only.
type refSRT struct {
	list    []*refEntry
	byID    map[string]*refEntry
	covered int // advertisements dropped as covered
}

type refEntry struct {
	id, hop string
	adv     *advert.Advertisement
}

func (r *refSRT) advertise(id string, a *advert.Advertisement, hop string) {
	if _, dup := r.byID[id]; dup {
		return
	}
	if !a.IsRecursive() {
		for _, old := range r.list {
			if old.hop == hop && !old.adv.IsRecursive() && flatCovers(old.adv.String(), a.String()) {
				r.byID[id] = old
				r.covered++
				return
			}
		}
	}
	e := &refEntry{id: id, hop: hop, adv: a}
	r.list = append(r.list, e)
	r.byID[id] = e
}

func (r *refSRT) unadvertise(id string) {
	e := r.byID[id]
	if e == nil {
		return
	}
	delete(r.byID, id)
	if i := slices.Index(r.list, e); i >= 0 {
		r.list = slices.Delete(r.list, i, i+1)
	}
}

func (r *refSRT) routes() []broker.AdvRoute {
	out := make([]broker.AdvRoute, 0, len(r.list))
	for _, e := range r.list {
		out = append(out, broker.AdvRoute{ID: e.id, Expr: e.adv.String(), LastHop: e.hop, Recursive: e.adv.IsRecursive()})
	}
	return out
}

// flatCovers is the covering rule for non-recursive advertisements in the
// paper's notation: equal lengths, and each test of a1 is "*" or equals
// a2's.
func flatCovers(a1, a2 string) bool {
	t1, t2 := strings.Split(a1, "/"), strings.Split(a2, "/")
	if len(t1) != len(t2) {
		return false
	}
	for i := range t1 {
		if t1[i] != "*" && t1[i] != t2[i] {
			return false
		}
	}
	return true
}

// checkSRT holds a broker's SRT to the reference.
func checkSRT(t *testing.T, b *broker.Broker, ref *refSRT, step string) {
	t.Helper()
	got, want := b.Routes().Advertisements, ref.routes()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SRT %d entries, reference %d; first difference %s", step, len(got), len(want), firstDiff(got, want))
	}
	if b.SRTSize() != len(want) {
		t.Fatalf("%s: SRTSize %d, want %d", step, b.SRTSize(), len(want))
	}
}

func firstDiff(got, want []broker.AdvRoute) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return "in length"
}

// TestAdvertisementCoveringMatchesLinearScan holds the broker's bucketed
// advertisement covering to the linear scan: after every advertise and
// unadvertise, Routes().Advertisements equals the reference's SRT, entry
// for entry and in order. It runs NITF's advertisements from two hops with
// flooding duplicates, then random non-recursive sets over a small
// alphabet with covered duplicates planted from the same hop and from the
// other one.
func TestAdvertisementCoveringMatchesLinearScan(t *testing.T) {
	newBroker := func() *broker.Broker {
		b := broker.New(broker.Config{ID: "b", UseAdvertisements: true, UseCovering: true}, func(string, *broker.Message) {})
		b.AddNeighbor("n1")
		b.AddNeighbor("n2")
		return b
	}
	hops := []string{"n1", "n2"}

	nitf, err := advert.Generate(dtddata.NITF())
	if err != nil {
		t.Fatal(err)
	}
	b, ref := newBroker(), &refSRT{byID: make(map[string]*refEntry)}
	for i, a := range nitf {
		id, hop := fmt.Sprintf("a%d", i), hops[i%2]
		b.HandleMessage(&broker.Message{Type: broker.MsgAdvertise, AdvID: id, Adv: a}, hop)
		ref.advertise(id, a, hop)
		if i%7 == 0 { // the same advertisement flooded back from the other hop
			b.HandleMessage(&broker.Message{Type: broker.MsgAdvertise, AdvID: id, Adv: a}, hops[1-i%2])
		}
	}
	checkSRT(t, b, ref, "NITF")

	alphabet := []string{"a", "b", "c", "*"}
	covered := 0
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		b, ref := newBroker(), &refSRT{byID: make(map[string]*refEntry)}
		var ids []string
		hopOf := make(map[string]string)
		advOf := make(map[string]*advert.Advertisement)
		for step := 0; step < 300; step++ {
			if len(ids) > 0 && r.Intn(5) == 0 {
				id := ids[r.Intn(len(ids))]
				b.HandleMessage(&broker.Message{Type: broker.MsgUnadvertise, AdvID: id}, hopOf[id])
				ref.unadvertise(id)
				checkSRT(t, b, ref, fmt.Sprintf("seed %d step %d: unadvertise %s", seed, step, id))
				continue
			}
			var names []string
			hop := hops[r.Intn(2)]
			if len(ids) > 0 && r.Intn(2) == 0 {
				// A planted duplicate: an earlier advertisement with some
				// "*" made concrete, from its hop or the other one.
				prev := ids[r.Intn(len(ids))]
				names = strings.Split(advOf[prev].String(), "/")[1:]
				for i := range names {
					if names[i] == "*" && r.Intn(2) == 0 {
						names[i] = alphabet[r.Intn(3)]
					}
				}
				if r.Intn(4) > 0 {
					hop = hopOf[prev]
				}
			} else {
				for i := 0; i < 1+r.Intn(4); i++ {
					names = append(names, alphabet[r.Intn(len(alphabet))])
				}
			}
			id := fmt.Sprintf("s%d", step)
			a := advert.FromPath(names...)
			ids = append(ids, id)
			hopOf[id], advOf[id] = hop, a
			b.HandleMessage(&broker.Message{Type: broker.MsgAdvertise, AdvID: id, Adv: a}, hop)
			ref.advertise(id, a, hop)
			checkSRT(t, b, ref, fmt.Sprintf("seed %d step %d: advertise %s %s from %s", seed, step, id, a, hop))
		}
		covered += ref.covered
	}
	if covered < 1000 {
		t.Fatalf("only %d advertisements were covered; the sets do not exercise covering", covered)
	}
}
