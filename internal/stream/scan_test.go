package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// The scanner's contract is boolean parity with xmldoc.Parse (which is
// encoding/xml in strict mode): every input here must be accepted by both
// or rejected by both. The table walks the parser's edge cases one
// construct at a time; the differential and fuzz tests cover the cross
// products.

func checkParity(t *testing.T, src string) {
	t.Helper()
	_, perr := xmldoc.Parse([]byte(src))
	serr := Scan([]byte(src), Limits{})
	if (perr == nil) != (serr == nil) {
		t.Errorf("verdict divergence on %q:\n  xmldoc.Parse: %v\n  stream.Scan:  %v", src, perr, serr)
	}
}

func TestScanParityStructure(t *testing.T) {
	for _, src := range []string{
		``, ` `, `x`, `<a/>`, `<a></a>`, `<a>text</a>`, `<a><b/><b/></a>`,
		`<a>`, `</a>`, `<a></b>`, `<a><b></a></b>`, `<a/><b/>`,
		`<a/>trailing`, `leading<a/>`, `  <a/>  `,
		`<a`, `<a b`, `<a /`, `< a/>`, `<a/ >`, `<a//>`,
		`<a><b></b>`, `<a></a></a>`, `<a><a></a></a>`,
		"\xef\xbb\xbf<a/>", // BOM is not valid before the root tag
		`<a>\u0000</a>`,    // literal backslash-u, fine
		"<a>\x00</a>", "<a>\x0b</a>", "<a>\x7f</a>", "<a>\xc3\x28</a>",
		"<a>\xed\xa0\x80</a>", // UTF-8-encoded surrogate
		"<a>\xf4\x8f\xbf\xbf</a>", "<a>\xf4\x90\x80\x80</a>",
		"<a>\r\n\t</a>", "<a>]]</a>", "<a>]]></a>", "<a>x]]&gt;y</a>",
		`<a>]] ></a>`, "<a><![CDATA[x]]>]]></a>",
	} {
		checkParity(t, src)
	}
}

func TestScanParityNames(t *testing.T) {
	for _, src := range []string{
		`<ns:a></ns:a>`, `<ns:a/>`, `<ns:a></a>`, `<a></ns:a>`,
		`<x:y:z/>`, `<:a/>`, `<a:/>`, `<:a></:a>`, `<a:></a:>`,
		`<1a/>`, `<-a/>`, `<.a/>`, `<a-b.c_d/>`, `<_a/>`, `<a1/>`,
		"<\xc3\xa9l\xc3\xa9ment/>", // élément
		"<a\xc2\xb7b/>",            // middle dot: valid continuation
		"<\xc2\xb7a/>",             // middle dot: invalid start
		"<\xff\xfe/>",              // invalid UTF-8 name
		`<a xmlns="u"/>`, `<x:a xmlns:x="u"></x:a>`, `<x:a xmlns:y="u"/>`,
		`<a x:b="1"/>`, `<a xmlns:x="u" x:b="1"/>`, `<a x:y:z="1"/>`,
	} {
		checkParity(t, src)
	}
}

func TestScanParityAttrs(t *testing.T) {
	for _, src := range []string{
		`<a b="c"/>`, `<a b='c'/>`, `<a b="c" d="e"/>`, `<a b="c"d="e"/>`,
		`<a b="c"></a>`, `<a  b = "c" />`, `<a b=c/>`, `<a b=/>`, `<a b/>`,
		`<a b="c/>`, `<a b="c'/>`, `<a b='c"d'/>`, `<a b="c'd"/>`,
		`<a b="c" b="d"/>`, `<a b="<"/>`, `<a b=">"/>`, `<a b="&lt;"/>`,
		`<a b="x]]>y"/>`, `<a b="&"/>`, `<a b="&amp"/>`, "<a b=\"\x01\"/>",
		`<a ="v"/>`, `<a b"v"/>`, `<a b ="v" c= 'w'/>`,
	} {
		checkParity(t, src)
	}
}

func TestScanParityEntities(t *testing.T) {
	for _, src := range []string{
		`<a>&lt;&gt;&amp;&apos;&quot;</a>`,
		`<a>&#65;&#x41;&#x4a;&#X41;</a>`, // &#X is not a hex marker
		`<a>&#0;</a>`, `<a>&#8;</a>`, `<a>&#9;</a>`, `<a>&#31;</a>`,
		`<a>&#55296;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`,
		`<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`, `<a>&#1114112;</a>`,
		`<a>&#99999999999999999999;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`,
		`<a>&#xg;</a>`, `<a>&#65</a>`, `<a>&#65 ;</a>`,
		`<a>&nbsp;</a>`, `<a>&unknown;</a>`, `<a>&lt</a>`, `<a>&lt ;</a>`,
		`<a>&;</a>`, `<a>& lt;</a>`, `<a>&</a>`, `<a>&l`, `<a>&#`,
		`<a>&amp;amp;</a>`, `<a>]]&gt;</a>`, `<a>&quot;]]&gt;&quot;</a>`,
		"<a>&\xc3\xa9;</a>", // non-ASCII entity name
	} {
		checkParity(t, src)
	}
}

func TestScanParityCommentsPIs(t *testing.T) {
	for _, src := range []string{
		`<!-- c --><a/>`, `<a><!-- c --></a>`, `<a/><!-- c -->`,
		`<!----><a/>`, `<!-----><a/>`, `<!------><a/>`, // "--" illegal inside
		`<!-- a-b --><a/>`, `<!-- a--b --><a/>`, `<!--- x ---><a/>`,
		`<!- bad --><a/>`, `<!--unterminated <a/>`, `<a><!-- <b> --></a>`,
		"<!-- \x01 --><a/>", // comments are not character-validated
		`<?pi data?><a/>`, `<a><?pi?></a>`, `<?pi ??></a>`,
		`<?pi unterminated <a/>`, `<?1bad?><a/>`, `<??></a>`,
		`<?x:y:z data?><a/>`, // PI targets have no namespace colon rules
		`<?xml version="1.0"?><a/>`, `<?xml version='1.0'?><a/>`,
		`<?xml version="2.0"?><a/>`, `<?xml version=""?><a/>`,
		`<?xml version="1.0" encoding="utf-8"?><a/>`,
		`<?xml version="1.0" encoding="UTF-8"?><a/>`,
		`<?xml version="1.0" encoding="Utf-8"?><a/>`,
		`<?xml version="1.0" encoding="latin-1"?><a/>`,
		`<?xml encoding=unquoted?><a/>`, `<?xml notversion="2.0"?><a/>`,
		`<a><?xml version="2.0"?></a>`, // "xml" PI rules apply anywhere
	} {
		checkParity(t, src)
	}
}

func TestScanParityCDATADirectives(t *testing.T) {
	for _, src := range []string{
		`<a><![CDATA[hello]]></a>`, `<a><![CDATA[]]></a>`,
		`<a><![CDATA[ <b> & </b> ]]></a>`, `<a><![CDATA[ ]] ]]></a>`,
		`<a><![CDATA[a]b]]c]]></a>`, `<a><![CDATA[unterminated</a>`,
		`<a><![CDAT[x]]></a>`, `<a><![cdata[x]]></a>`, `<![CDATA[x]]><a/>`,
		"<a><![CDATA[\x02]]></a>", "<a><![CDATA[\xff]]></a>",
		`<!DOCTYPE a><a/>`, `<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>`,
		`<!DOCTYPE a [<!-- > -->]><a/>`, `<!DOCTYPE a "unclosed><a/>`,
		`<!DOCTYPE a '>' ><a/>`, `<!DOCTYPE a [" <!-- "]><a/>`,
		`<!DOCTYPE a <inner <more>>><a/>`, `<!DOCTYPE a <!-><a/>`,
		`<!'><a/>`, // first directive byte bypasses the quote machine
		`<!DOCTYPE unterminated <a/>`, `<!X <!-- --> Y><a/>`,
		`<!X <!-- > --> Y><a/>`, `<!X <!--> Y><a/>`,
	} {
		checkParity(t, src)
	}
}

// TestScanParityGenerated crosses a set of fragments through a set of
// document templates — cheap combinatorial coverage of constructs in
// element, attribute, and top-level positions.
func TestScanParityGenerated(t *testing.T) {
	fragments := []string{
		``, `x`, `&lt;`, `&#x41;`, `&bad;`, `]]>`, `<!-- c -->`, `<b/>`,
		`<b>y</b>`, `<?p d?>`, `<![CDATA[z]]>`, "\r\n", `&`, `<`, `>`,
	}
	templates := []string{
		`<a>%s</a>`, `<a t="v">%s</a>`, `%s<a/>`, `<a/>%s`, `<a><b>%s</b></a>`,
	}
	for _, tpl := range templates {
		for _, frag := range fragments {
			checkParity(t, fmt.Sprintf(tpl, frag))
		}
	}
	// Attribute-value position (quotes differ from element content).
	for _, frag := range []string{
		``, `x`, `&lt;`, `&#x41;`, `&bad;`, `]]>`, `'`, `"`, `<`, `>`, "\r\nx",
	} {
		checkParity(t, fmt.Sprintf(`<a t="%s"/>`, frag))
		checkParity(t, fmt.Sprintf(`<a t='%s'/>`, frag))
	}
}

// TestAttrDecodeParity compares the lazily-decoded attribute values (and
// local names, in document order) against what encoding/xml produces.
func TestAttrDecodeParity(t *testing.T) {
	for _, src := range []string{
		`<a b="plain"/>`,
		`<a b="&lt;&gt;&amp;&apos;&quot;"/>`,
		`<a b="&#65;&#x2603;x"/>`,
		"<a b=\"one\rtwo\"/>",
		"<a b=\"one\r\ntwo\"/>",
		"<a b=\"\r&#10;\n\"/>",
		"<a b=\"a\r\"/>",
		`<a b="" c="2"/>`,
		`<a b="dup" b="wins"/>`,
		`<ns:a ns:b="v" xmlns:ns="u"/>`,
		`<a b="&#xD7FF;&#xE000;"/>`,
		"<a b='mixed\"quote'/>",
	} {
		doc, err := xmldoc.Parse([]byte(src))
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		var got [][2]string
		var sc scanner
		sc.reset([]byte(src), Limits{})
		sc.onOpen = func(local span, attrs []attrSpan) {
			for _, a := range attrs {
				got = append(got, [2]string{
					string(a.local.of(sc.data)),
					decodeAttrValue(sc.data, a),
				})
			}
		}
		if err := sc.run(); err != nil {
			t.Fatalf("Scan(%q): %v", src, err)
		}
		var want [][2]string
		var walk func(e *xmldoc.Elem)
		walk = func(e *xmldoc.Elem) {
			for _, a := range e.Attrs {
				want = append(want, [2]string{a.Name, a.Value})
			}
			for _, c := range e.Children {
				walk(c)
			}
		}
		walk(doc.Root)
		if len(got) != len(want) {
			t.Fatalf("%q: %d attrs scanned, %d parsed", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q attr %d: scanned %q=%q, parsed %q=%q",
					src, i, got[i][0], got[i][1], want[i][0], want[i][1])
			}
		}
	}
}

// Wire-bound enforcement: the incremental checks during the scan must agree
// with CheckDoc over the parsed tree, including exactly at the bounds.

func nestedDoc(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	b.WriteString("<leaf/>")
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	return b.String()
}

func flatDoc(elems int) string {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 1; i < elems; i++ {
		b.WriteString("<c/>")
	}
	b.WriteString("</r>")
	return b.String()
}

func TestScanWireBounds(t *testing.T) {
	cases := []struct {
		name string
		src  string
		ok   bool
	}{
		// nestedDoc(d) has d+1 levels (the leaf has d ancestors).
		{"depth-at-bound", nestedDoc(MaxDocDepth - 1), true},
		{"depth-over-bound", nestedDoc(MaxDocDepth), false},
		{"elems-at-bound", flatDoc(MaxDocElems), true},
		{"elems-over-bound", flatDoc(MaxDocElems + 1), false},
		{"name-at-bound", "<" + strings.Repeat("n", MaxDocName) + "/>", true},
		{"name-over-bound", "<" + strings.Repeat("n", MaxDocName+1) + "/>", false},
		// Attribute names and prefixes are not bounded (local name only).
		{"attr-name-unbounded", `<a ` + strings.Repeat("n", MaxDocName+1) + `="v"/>`, true},
		{"prefix-unbounded", "<" + strings.Repeat("p", MaxDocName) + ":a/>", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serr := Scan([]byte(tc.src), WireLimits)
			if (serr == nil) != tc.ok {
				t.Fatalf("Scan: err=%v, want ok=%v", serr, tc.ok)
			}
			doc, perr := xmldoc.Parse([]byte(tc.src))
			if perr != nil {
				t.Fatalf("Parse: %v", perr)
			}
			cerr := CheckDoc(doc, WireLimits)
			if (cerr == nil) != (serr == nil) {
				t.Fatalf("bound divergence: Scan=%v CheckDoc=%v", serr, cerr)
			}
		})
	}
}

func TestScanLimitsZeroUnbounded(t *testing.T) {
	src := nestedDoc(MaxDocDepth + 10)
	if err := Scan([]byte(src), Limits{}); err != nil {
		t.Fatalf("unbounded Scan rejected: %v", err)
	}
	if err := Scan([]byte(src), WireLimits); err == nil {
		t.Fatal("WireLimits Scan accepted an over-deep document")
	}
}

func TestCheckDocNil(t *testing.T) {
	if err := CheckDoc(nil, WireLimits); err == nil {
		t.Fatal("nil document accepted")
	}
	if err := CheckDoc(&xmldoc.Document{}, WireLimits); err == nil {
		t.Fatal("rootless document accepted")
	}
	d := &xmldoc.Document{Root: &xmldoc.Elem{Name: "a", Children: []*xmldoc.Elem{nil}}}
	if err := CheckDoc(d, WireLimits); err == nil {
		t.Fatal("nil child accepted")
	}
}
