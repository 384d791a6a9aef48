package broker

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// randomBrokerDoc builds a small random document over the broker test
// alphabet, with k=a|b attributes that the predicate subscriptions from
// randomWorkloadXPE can hit.
func randomBrokerDoc(r *rand.Rand) *xmldoc.Document {
	alpha := []string{"a", "b", "c", "d", "zz"}
	var build func(depth int) *xmldoc.Elem
	build = func(depth int) *xmldoc.Elem {
		e := &xmldoc.Elem{Name: alpha[r.Intn(len(alpha))]}
		if r.Intn(3) == 0 {
			e.Attrs = append(e.Attrs, xmldoc.Attr{Name: "k", Value: alpha[r.Intn(2)]})
		}
		if depth < 4 {
			for i := r.Intn(3); i > 0; i-- {
				e.Children = append(e.Children, build(depth+1))
			}
		}
		return e
	}
	return &xmldoc.Document{Root: build(0)}
}

// TestStreamingRoutesLikeDecomposition is the broker-level differential
// contract for DESIGN.md §5e: whole documents, published as their bytes
// (Message.Raw, the Marshal of a random tree), are streamed through the
// automaton, and under every routing scenario each must reach exactly what
// the tree walk over its decomposed paths reaches (checkRoutesLikeTreeWalk).
func TestStreamingRoutesLikeDecomposition(t *testing.T) {
	totals := checkRoutesLikeTreeWalk(t, func(r *rand.Rand) []*Message {
		return []*Message{{Type: MsgPublish, Raw: randomBrokerDoc(r).Marshal()}}
	})
	// Merged subscriptions must be exercised by documents, not only by
	// single paths: a document whose paths match an imperfect merger but no
	// client subscription is the edge filter's case.
	if totals["merge-imperfect/"].FalsePositives == 0 {
		t.Error("merge-imperfect: no document false positive in any seed: scenario is vacuous")
	}
}

// TestStreamingForwardsRawUntouched pins the zero-copy contract: a raw body
// that matches a neighbour subscription is forwarded as the same bytes, not
// re-marshalled or copied.
func TestStreamingForwardsRawUntouched(t *testing.T) {
	var got *Message
	b := New(Config{ID: "b1"}, func(to string, m *Message) {
		if m.Type == MsgPublish && to == "n1" {
			got = m
		}
	})
	b.AddNeighbor("n1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a//b")}, "n1")
	// Raw form with noise the tree would not round-trip: a comment and
	// single-quoted attributes.
	raw := []byte("<a k='1'><!-- noise --><x><b/></x></a>")
	b.HandleMessage(&Message{Type: MsgPublish, Raw: raw}, "producer")
	if got == nil {
		t.Fatal("matching raw publication was not forwarded")
	}
	if &got.Raw[0] != &raw[0] {
		t.Fatal("raw body must be forwarded as the same bytes")
	}
}

// TestStreamingDropsBadRaw pins the failure contract: malformed raw bodies
// and bodies over the wire document bounds are dropped — never forwarded,
// even to subscriptions that a prefix of the document matches — and counted
// in Stats.BadDocuments.
func TestStreamingDropsBadRaw(t *testing.T) {
	deep := "<a>" + strings.Repeat("<b>", 300) + strings.Repeat("</b>", 300) + "</a>"
	bad := []struct {
		name string
		raw  string
	}{
		{"malformed", "<a><b></a>"},
		{"truncated", "<a><b/>"},
		{"entity", "<a>&bogus;</a>"},
		{"over-depth", deep},
		{"two-roots", "<a/><a/>"},
	}
	t.Run("streaming", func(t *testing.T) {
		rec := &pubSink{}
		b := New(Config{ID: "b1"}, rec.send)
		b.AddNeighbor("n1")
		// Every bad body starts with <a>, so a prefix match exists.
		b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a")}, "n1")
		for _, tc := range bad {
			b.HandleMessage(&Message{Type: MsgPublish, Raw: []byte(tc.raw)}, "producer")
		}
		if lines := rec.sorted(); len(lines) != 0 {
			t.Fatalf("bad documents were forwarded: %v", lines)
		}
		if st := b.Stats(); st.BadDocuments != int64(len(bad)) {
			t.Fatalf("BadDocuments = %d, want %d", st.BadDocuments, len(bad))
		}
		// A good document afterwards still routes.
		b.HandleMessage(&Message{Type: MsgPublish, Raw: []byte("<a/>")}, "producer")
		if lines := rec.sorted(); len(lines) != 1 {
			t.Fatalf("good document after bad ones: %v", lines)
		}
	})
}
