package stream

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// FuzzStreamEquivalence feeds arbitrary bytes to both pipelines:
//
//	parse-then-check:  xmldoc.Parse + CheckDoc(WireLimits) + decompose + pmatch
//	streaming:         stream.Match(WireLimits)
//
// and requires (1) identical accept/reject verdicts, (2) identical match
// sets for every automaton derived from the seed when both accept, and
// (3) identical element names and decoded attributes in document order.
// Any divergence the fuzzer finds is a scanner bug by definition — the
// parsed pipeline is the oracle.
func FuzzStreamEquivalence(f *testing.F) {
	for _, s := range []string{
		`<a><b k="a">text</b><c/></a>`,
		`<a>&lt;&#65;&#x10FFFF;</a>`,
		`<?xml version="1.0" encoding="UTF-8"?><a b='1'/>`,
		`<!DOCTYPE a [<!-- > -->]><a/>`,
		`<a><![CDATA[ ]]> text ]]&gt;</a>`,
		`<ns:a xmlns:ns="u" ns:k="v"></ns:a>`,
		`<a k="&quot;&#xD7FF;"/>`,
		"<a>\r\n<b/>\r</a>",
		`<a/><!-- trailing -->`,
		`<a><b><a><b/></a></b></a>`,
	} {
		f.Add([]byte(s), uint64(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		r := rand.New(rand.NewSource(int64(seed)))
		nx := 1 + int(seed%8)
		xs := make([]*xpath.XPE, nx)
		for i := range xs {
			xs[i] = diffXPE(r)
		}
		auto := diffAutomaton(xs)

		doc, perr := xmldoc.Parse(data)
		parsedOK := perr == nil && CheckDoc(doc, WireLimits) == nil

		var streamed []int
		seen := map[int]bool{}
		serr := Match(data, auto, WireLimits, func(d any) {
			if i := d.(int); !seen[i] {
				seen[i] = true
				streamed = append(streamed, i)
			}
		})
		if parsedOK != (serr == nil) {
			t.Fatalf("verdict divergence on %q: parse+check ok=%v, stream err=%v (parse err=%v)",
				data, parsedOK, serr, perr)
		}
		if !parsedOK {
			return
		}

		// Match-set equivalence: streaming vs decompose.
		var decomposed []int
		seenD := map[int]bool{}
		paths, attrs := doc.AnnotatedSymPaths()
		for i, p := range paths {
			auto.Match(p, attrs[i], func(d any) {
				if k := d.(int); !seenD[k] {
					seenD[k] = true
					decomposed = append(decomposed, k)
				}
			})
		}
		sort.Ints(streamed)
		sort.Ints(decomposed)
		if !eqIntSlices(streamed, decomposed) {
			t.Fatalf("match divergence on %q: streamed=%v decomposed=%v",
				data, streamed, decomposed)
		}

		// Structural equivalence: names and decoded attributes, in document
		// order, must be what the parser produced.
		type elemShape struct {
			name  string
			attrs [][2]string
		}
		var got []elemShape
		var sc scanner
		sc.reset(data, WireLimits)
		sc.onOpen = func(local span, as []attrSpan) {
			e := elemShape{name: string(local.of(sc.data))}
			for _, a := range as {
				e.attrs = append(e.attrs, [2]string{
					string(a.local.of(sc.data)),
					decodeAttrValue(sc.data, a),
				})
			}
			got = append(got, e)
		}
		if err := sc.run(); err != nil {
			t.Fatalf("re-scan of accepted input %q failed: %v", data, err)
		}
		var want []elemShape
		var walk func(e *xmldoc.Elem)
		walk = func(e *xmldoc.Elem) {
			s := elemShape{name: e.Name}
			for _, a := range e.Attrs {
				s.attrs = append(s.attrs, [2]string{a.Name, a.Value})
			}
			want = append(want, s)
			for _, c := range e.Children {
				walk(c)
			}
		}
		walk(doc.Root)
		if len(got) != len(want) {
			t.Fatalf("element count divergence on %q: scanned %d, parsed %d", data, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].name {
				t.Fatalf("element %d name divergence on %q: scanned %q, parsed %q",
					i, data, got[i].name, want[i].name)
			}
			if len(got[i].attrs) != len(want[i].attrs) {
				t.Fatalf("element %d attr count divergence on %q: %v vs %v",
					i, data, got[i].attrs, want[i].attrs)
			}
			for j := range got[i].attrs {
				if got[i].attrs[j] != want[i].attrs[j] {
					t.Fatalf("element %d attr %d divergence on %q: scanned %v, parsed %v",
						i, j, data, got[i].attrs[j], want[i].attrs[j])
				}
			}
		}
	})
}
