package xpath

import "testing"

// FuzzParseXPE fuzzes the XPath parser. For every input the parser accepts,
// the canonical rendering must re-parse to a structurally equal expression
// (String is a fixpoint), and the matching entry points must not panic. The
// seed corpus is drawn from the expressions the unit tests exercise,
// including the attribute-predicate extension with both quote styles.
func FuzzParseXPE(f *testing.F) {
	seeds := []string{
		"/a",
		"//a",
		"/a/b/c",
		"/a//b",
		"a/b",
		"*/c//d",
		"/stock/quote/price",
		"/a/*//b",
		"//*",
		"/nitf/body//p",
		"/a[@x='1']",
		"/a[@x='1'][@y='2']/b",
		`/a[@x="it's"]`,
		"//claim[@lang='en']//part",
		"/",
		"//",
		"/a/",
		"a[",
		"/a[@]",
		"/a[@x=''] ",
		"/a[@x='v]",
		"/a b",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		x, err := Parse(input)
		if err != nil {
			return // rejected input: only absence of panics is required
		}
		canonical := x.String()
		y, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canonical, input, err)
		}
		if !x.Equal(y) {
			t.Fatalf("round-trip changed %q: %q vs %q", input, canonical, y.String())
		}
		if again := y.String(); again != canonical {
			t.Fatalf("String is not a fixpoint: %q -> %q", canonical, again)
		}
		// The matchers must tolerate any accepted expression.
		for _, path := range [][]string{nil, {"a"}, {"a", "b", "c"}} {
			x.MatchesPath(path)
			x.MatchesPathAttrs(path, []map[string]string{{"x": "1"}})
		}
		for start := 0; start < x.Len(); start = x.SegmentEnd(start) {
		}
		_ = x.IsSimple()
		_ = x.HasWildcard()
		_ = x.HasPredicates()
	})
}
