package broker

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/advert"
	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// linearNextHops is the reference subscriptionNextHops is held to: the scan
// of the whole SRT that the per-hop advertisement indexes replaced. An entry
// names its last hop as a next hop when the hop is not from, not the
// broker's own "", not a client, and the advertisement overlaps x.
func linearNextHops(b *Broker, x *xpath.XPE, from string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range b.srt {
		if e.lastHop == "" || e.lastHop == from || seen[e.lastHop] {
			continue
		}
		if !b.clients[e.lastHop] && e.adv.Overlaps(x) {
			seen[e.lastHop] = true
			out = append(out, e.lastHop)
		}
	}
	sort.Strings(out)
	return out
}

// checkAdvIndex verifies that the advertisement indexes hold exactly the
// SRT's entries: each entry sits in its last hop's index at its slot, and no
// index holds anything else. So do the covering buckets.
func checkAdvIndex(t *testing.T, b *Broker) {
	t.Helper()
	perHop := make(map[string]int)
	for _, e := range b.srt {
		ix := b.advIndex[e.lastHop]
		if ix == nil || ix.At(e.slot) != e.adv {
			t.Fatalf("SRT entry %s (hop %q) is not in its hop's index at slot %d", e.id, e.lastHop, e.slot)
		}
		perHop[e.lastHop]++
	}
	for hop, ix := range b.advIndex {
		if ix.Len() != perHop[hop] {
			t.Fatalf("hop %q: index holds %d advertisements, SRT %d", hop, ix.Len(), perHop[hop])
		}
	}
	// The covering buckets hold exactly the SRT's covering candidates, each
	// bucket in SRT order.
	buckets := make(map[flatKey][]*advEntry)
	for _, e := range b.srt {
		if key, ok := b.coverKey(e); ok {
			buckets[key] = append(buckets[key], e)
		}
	}
	if !reflect.DeepEqual(buckets, b.flatSRT) {
		t.Fatalf("covering buckets %v, want %v", b.flatSRT, buckets)
	}
}

// TestNextHopsMatchLinearScan drives a broker through random advertise,
// unadvertise, subscribe and unsubscribe sequences from two neighbours and a
// client, and after every step holds subscriptionNextHops to the linear SRT
// scan for every direction a subscription can arrive from.
func TestNextHopsMatchLinearScan(t *testing.T) {
	nitf, err := advert.Generate(dtddata.NITF())
	if err != nil {
		t.Fatal(err)
	}
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.2, 0.2, 17)
	g.Relative = 0.3
	xs := make([]*xpath.XPE, 200)
	for i := range xs {
		xs[i] = g.Generate()
	}
	// Advertisements also arrive from "", the broker itself, whose entries
	// never name a next hop.
	hops := []string{"n1", "n2", "c", ""}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := New(Config{ID: "b1", UseAdvertisements: true, UseCovering: seed%2 == 0}, func(string, *Message) {})
		b.AddNeighbor("n1")
		b.AddNeighbor("n2")
		b.AddClient("c")
		advertised := make(map[string]string) // AdvID -> hop
		var ids []string
		for step := 0; step < 300; step++ {
			hop := hops[r.Intn(len(hops)-1)]
			switch op := r.Intn(10); {
			case op < 4:
				id := fmt.Sprintf("a%d", step)
				if len(ids) > 0 && r.Intn(8) == 0 {
					id = ids[r.Intn(len(ids))] // a flooding duplicate
				} else {
					ids = append(ids, id)
					advertised[id] = hops[r.Intn(len(hops))]
				}
				a := nitf[r.Intn(len(nitf))]
				if r.Intn(4) == 0 {
					// A fresh token string with a wildcard item.
					toks := slices.Clone(a.Tokens())
					if k := r.Intn(len(toks)); toks[k] != symtab.GroupOpen && toks[k] != symtab.GroupClose {
						toks[k] = symtab.Wildcard
					}
					if a, err = advert.FromTokens(toks); err != nil {
						t.Fatal(err)
					}
				}
				b.HandleMessage(&Message{Type: MsgAdvertise, AdvID: id, Adv: a}, advertised[id])
			case op < 6 && len(ids) > 0:
				id := ids[r.Intn(len(ids))]
				b.HandleMessage(&Message{Type: MsgUnadvertise, AdvID: id}, advertised[id])
			case op < 9:
				b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xs[r.Intn(len(xs))]}, hop)
			default:
				b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: xs[r.Intn(len(xs))]}, hop)
			}
			checkAdvIndex(t, b)
			for i := 0; i < 4; i++ {
				x := xs[r.Intn(len(xs))]
				for _, from := range []string{"", "n1", "n2", "c"} {
					got, want := b.subscriptionNextHops(x, from), linearNextHops(b, x, from)
					if len(got) != 0 || len(want) != 0 {
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d step %d: next hops of %s from %q = %v, linear scan %v", seed, step, x, from, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMessageGobCarriesAdvertisement holds that encoding/gob, the codec the
// wire benchmark compares the binary codec against, can still encode every
// control message: gob compiles an encoder for each field type of Message,
// Adv's too, even for messages that leave it nil.
func TestMessageGobCarriesAdvertisement(t *testing.T) {
	msgs := []*Message{
		{Type: MsgAdvertise, AdvID: "a1", Adv: advert.MustParse("/nitf(/body)+/p")},
		{Type: MsgSubscribe, XPE: xpath.MustParse("/nitf//p")},
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("encode %v: %v", m.Type, err)
		}
		var got Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("decode %v: %v", m.Type, err)
		}
		if (m.Adv == nil) != (got.Adv == nil) || m.Adv != nil && !m.Adv.Equal(got.Adv) {
			t.Errorf("%v: advertisement %v came back as %v", m.Type, m.Adv, got.Adv)
		}
	}
}
