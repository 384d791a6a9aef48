package wirefmt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtddata"
)

var updateAdvGolden = flag.Bool("update-adv-golden", false, "rewrite "+advGoldenFile+" from the current encoder")

// advGoldenFile holds the advertisement frames of goldenAdverts, encoded
// one message per flush by one encoder, as the layout stood before
// advertisements were stored as token strings. The encoder must keep
// writing it byte for byte: the wire format has no version for it.
const advGoldenFile = "testdata/adverts.golden"

// goldenAdverts is the advertisement series the golden file encodes: NITF's
// first 200 generated advertisements, then hand-built series, embedded,
// wildcard, at-depth and at-size cases.
func goldenAdverts(t *testing.T) []*advert.Advertisement {
	t.Helper()
	nitf, err := advert.Generate(dtddata.NITF())
	if err != nil {
		t.Fatal(err)
	}
	advs := append([]*advert.Advertisement(nil), nitf[:200]...)
	for _, s := range []string{
		"/a(/b)+/c(/d/e)+/f",       // series
		"/x(/a(/b)+/c)+/y",         // embedded
		"/x(/a(/b/c)+(/d)+)+(/e)+", // embedded and series
		"/*/b/*(/*)+",              // wildcards, in a group too
		"/nitf/head/title",         // names the dictionary already holds
		"/r" + strings.Repeat("(/g", MaxAdvDepth) + strings.Repeat(")+", MaxAdvDepth), // MaxAdvDepth nested groups
	} {
		advs = append(advs, advert.MustParse(s))
	}
	// MaxAdvItems items: all names, and a group holding all but two.
	flat := make([]advert.Item, MaxAdvItems)
	for i := range flat {
		flat[i] = advert.Sym(fmt.Sprintf("n%d", i))
	}
	advs = append(advs,
		advert.NewAdvertisement(flat...),
		advert.NewAdvertisement(flat[0], advert.Rep(flat[1:MaxAdvItems-1]...)))
	return advs
}

// encodeAdverts encodes advs as advertise messages, one flush each.
func encodeAdverts(t *testing.T, advs []*advert.Advertisement) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for i, a := range advs {
		if err := enc.Encode(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("g%d", i), Adv: a}); err != nil {
			t.Fatalf("encoding %s: %v", a, err)
		}
	}
	return buf.Bytes()
}

// TestAdvertFramesGolden pins the advertisement layout on the wire: the
// encoder writes the golden frames byte for byte, and a decoder reading
// them gets back every advertisement, String for String.
func TestAdvertFramesGolden(t *testing.T) {
	advs := goldenAdverts(t)
	got := encodeAdverts(t, advs)
	if *updateAdvGolden {
		if err := os.WriteFile(advGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(advGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("advertisement frames differ from %s at byte %d (%d bytes written, %d golden)", advGoldenFile, at, len(got), len(want))
	}
	dec := NewDecoder(bytes.NewReader(want), DefaultLimits)
	for i, a := range advs {
		var m broker.Message
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("advertisement %d (%s): %v", i, a, err)
		}
		if m.Type != broker.MsgAdvertise || m.AdvID != fmt.Sprintf("g%d", i) || m.Adv.String() != a.String() {
			t.Fatalf("advertisement %d: decoded %v %q %s, want %s", i, m.Type, m.AdvID, m.Adv, a)
		}
	}
}
