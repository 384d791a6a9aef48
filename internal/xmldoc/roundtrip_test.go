package xmldoc

import (
	"reflect"
	"testing"
)

// TestMarshalKeepsCarriageReturns: a parser reads a literal \r, and a \r\n
// pair, back as \n, so Marshal must write \r as a character reference or a
// hand-built tree would change on its way to the wire — and a predicate
// that matches the tree would miss its bytes.
func TestMarshalKeepsCarriageReturns(t *testing.T) {
	for _, v := range []string{"a\rb", "a\r\nb", "\r"} {
		d := &Document{Root: &Elem{
			Name:     "r",
			Attrs:    []Attr{{Name: "k", Value: v}},
			Children: []*Elem{{Name: "t", Text: "x" + v + "y"}},
		}}
		got, err := Parse(d.Marshal())
		if err != nil {
			t.Fatalf("%q: re-parse: %v", v, err)
		}
		if a := got.Root.Attrs[0].Value; a != v {
			t.Errorf("attribute %q came back as %q", v, a)
		}
		if txt := got.Root.Children[0].Text; txt != "x"+v+"y" {
			t.Errorf("text %q came back as %q", "x"+v+"y", txt)
		}
	}
}

// FuzzMarshalRoundTrip: Marshal is how a tree reaches the wire, so every
// document Parse accepts must come back from Parse(Marshal) unchanged.
func FuzzMarshalRoundTrip(f *testing.F) {
	for _, s := range []string{
		sample,
		`<a x="1 &amp; 2">hello <b>world</b> tail</a>`,
		`<a k="a&#xD;b" j="a&#xD;&#xA;b">x&#xD;y</a>`,
		"<a k=\"a\r\nb\">\r\n<b/>\r</a>",
		`<ns:a xmlns:ns="u" ns:k="&quot;&lt;&gt;"><![CDATA[<c>]]></ns:a>`,
		`<a><b/>t<c/>u</a>`,
		`<p:0 q:-k="1"><r:.b/></p:0>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		out := d.Marshal()
		d2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v\nmarshalled: %q", data, err, out)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip changed %q\nmarshalled: %q\nbefore: %#v\nafter:  %#v", data, out, d.Root, d2.Root)
		}
	})
}
