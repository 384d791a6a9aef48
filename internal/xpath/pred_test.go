package xpath

import "testing"

func TestParsePredicates(t *testing.T) {
	x, err := Parse(`/insurance/claim[@lang='en']/expert`)
	if err != nil {
		t.Fatal(err)
	}
	if x.Steps[1].Preds != `[@lang='en']` {
		t.Errorf("Preds = %q", x.Steps[1].Preds)
	}
	if !x.HasPredicates() {
		t.Error("HasPredicates should be true")
	}
	// Multiple predicates canonicalise in sorted order regardless of input
	// order, and double quotes are accepted.
	a := MustParse(`/a/b[@y="2"][@x='1']`)
	b := MustParse(`/a/b[@x='1'][@y='2']`)
	if !a.Equal(b) {
		t.Errorf("predicate order not canonical: %s vs %s", a, b)
	}
	if got := a.String(); got != `/a/b[@x='1'][@y='2']` {
		t.Errorf("String = %q", got)
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, in := range []string{
		`/a[@x]`, `/a[x='1']`, `/a[@='1']`, `/a[@x='1'`, `/a[@x='1"]`, `/a[@x=1]`, `/a[]`,
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestEncodeDecodePreds(t *testing.T) {
	preds := []Pred{{Attr: "z", Value: "9"}, {Attr: "a", Value: "1"}}
	enc := EncodePreds(preds)
	if enc != `[@a='1'][@z='9']` {
		t.Errorf("EncodePreds = %q", enc)
	}
	back := DecodePreds(enc)
	if len(back) != 2 || back[0] != (Pred{Attr: "a", Value: "1"}) {
		t.Errorf("DecodePreds = %v", back)
	}
	if EncodePreds(nil) != "" || DecodePreds("") != nil {
		t.Error("empty predicate round trip broken")
	}
}

func TestMatchesPathAttrs(t *testing.T) {
	x := MustParse(`/claim[@lang='en']/detail`)
	path := []string{"claim", "detail"}
	en := []map[string]string{{"lang": "en"}, nil}
	fr := []map[string]string{{"lang": "fr"}, nil}
	none := []map[string]string{nil, nil}
	if !x.MatchesPathAttrs(path, en) {
		t.Error("matching attributes rejected")
	}
	if x.MatchesPathAttrs(path, fr) {
		t.Error("wrong attribute value accepted")
	}
	if x.MatchesPathAttrs(path, none) {
		t.Error("missing attribute accepted")
	}
	if x.MatchesPathAttrs(path, nil) {
		t.Error("nil attribute slice accepted")
	}
	// Predicate-free expressions ignore attributes entirely.
	y := MustParse("/claim/detail")
	if !y.MatchesPathAttrs(path, nil) {
		t.Error("predicate-free expression should match")
	}
}

func TestMatchesPathAttrsDescendant(t *testing.T) {
	x := MustParse(`//item[@kind='book']`)
	path := []string{"shop", "aisle", "item"}
	attrs := []map[string]string{nil, nil, {"kind": "book"}}
	if !x.MatchesPathAttrs(path, attrs) {
		t.Error("descendant with predicate should match")
	}
	attrs[2] = map[string]string{"kind": "dvd"}
	if x.MatchesPathAttrs(path, attrs) {
		t.Error("descendant with wrong predicate matched")
	}
}

func TestStepCovers(t *testing.T) {
	mk := func(s string) Step {
		x := MustParse("/" + s)
		return x.Steps[0]
	}
	tests := []struct {
		a, b string
		want bool
	}{
		{"t", "t", true},
		{"*", "t[@x='1']", true},
		{"t", "t[@x='1']", true},  // fewer constraints cover more
		{"t[@x='1']", "t", false}, // a predicate never covers its absence
		{"t[@x='1']", "t[@x='1']", true},
		{"t[@x='1']", "t[@x='2']", false},
		{"t[@x='1']", "t[@x='1'][@y='2']", true},
		{"t[@x='1'][@y='2']", "t[@x='1']", false},
	}
	for _, tt := range tests {
		if got := StepCovers(mk(tt.a), mk(tt.b)); got != tt.want {
			t.Errorf("StepCovers(%s, %s) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestPredicateRoundTripThroughString(t *testing.T) {
	in := `/a[@k='v']/b//c[@m='1'][@n='2']`
	x := MustParse(in)
	if got := x.String(); got != in {
		t.Errorf("round trip = %q", got)
	}
	y := MustParse(x.String())
	if !x.Equal(y) {
		t.Error("re-parse changed expression")
	}
}

// TestKeyStableUnderPredicateOrder pins the regression where two hand-built
// steps listing the same predicates in different orders produced different
// Key() renderings, letting one logical subscription occupy two routing-table
// slots. Key must canonicalise predicate order; inequivalent predicate sets
// must still yield distinct keys.
func TestKeyStableUnderPredicateOrder(t *testing.T) {
	mk := func(preds string) *XPE {
		return &XPE{Steps: []Step{
			{Axis: Child, Name: "a"},
			{Axis: Child, Name: "b", Preds: preds},
		}}
	}
	sorted := mk(`[@m='1'][@n='2']`)
	reversed := mk(`[@n='2'][@m='1']`)
	if sorted.Key() != reversed.Key() {
		t.Errorf("Key differs under predicate order: %q vs %q", sorted.Key(), reversed.Key())
	}
	// The canonical form matches what the parser would have produced.
	parsed := MustParse(`/a/b[@m='1'][@n='2']`)
	if reversed.Key() != parsed.Key() {
		t.Errorf("hand-built key %q != parsed key %q", reversed.Key(), parsed.Key())
	}
	// Same attributes, different values: still distinct subscriptions.
	other := mk(`[@m='2'][@n='1']`)
	if other.Key() == sorted.Key() {
		t.Errorf("distinct predicate sets collide on key %q", other.Key())
	}
	// A Preds string that does not parse as predicates is kept verbatim
	// rather than silently dropped or merged.
	junk := mk(`[not-a-pred`)
	if junk.Key() == mk("").Key() {
		t.Error("malformed predicate encoding vanished from the key")
	}
}

// TestKeyCachedAtomically races first Key calls on fresh expressions: every
// goroutine must read the full key, whichever racing store wins.
func TestKeyCachedAtomically(t *testing.T) {
	const want = `/a//b[@m='1'][@n='2']/*`
	for round := 0; round < 20; round++ {
		x := &XPE{Steps: []Step{
			{Axis: Child, Name: "a"},
			{Axis: Descendant, Name: "b", Preds: `[@n='2'][@m='1']`},
			{Axis: Child, Name: Wildcard},
		}}
		got := make(chan string, 8)
		for g := 0; g < 8; g++ {
			go func() { got <- x.Key() }()
		}
		for g := 0; g < 8; g++ {
			if k := <-got; k != want {
				t.Fatalf("Key = %q, want %q", k, want)
			}
		}
	}
}
