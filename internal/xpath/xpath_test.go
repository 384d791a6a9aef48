package xpath

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/symtab"
)

func TestParseValid(t *testing.T) {
	tests := []struct {
		in       string
		relative bool
		steps    []Step
	}{
		{"/a", false, []Step{{Axis: Child, Name: "a"}}},
		{"/a/b/c", false, []Step{{Axis: Child, Name: "a"}, {Axis: Child, Name: "b"}, {Axis: Child, Name: "c"}}},
		{"/a//b", false, []Step{{Axis: Child, Name: "a"}, {Axis: Descendant, Name: "b"}}},
		{"//a", false, []Step{{Axis: Descendant, Name: "a"}}},
		{"//a/b", false, []Step{{Axis: Descendant, Name: "a"}, {Axis: Child, Name: "b"}}},
		{"a/b", true, []Step{{Axis: Child, Name: "a"}, {Axis: Child, Name: "b"}}},
		{"*/c", true, []Step{{Axis: Child, Name: "*"}, {Axis: Child, Name: "c"}}},
		{"d/a", true, []Step{{Axis: Child, Name: "d"}, {Axis: Child, Name: "a"}}},
		{"*/a//d/*/c//b", true, []Step{
			{Axis: Child, Name: "*"}, {Axis: Child, Name: "a"}, {Axis: Descendant, Name: "d"},
			{Axis: Child, Name: "*"}, {Axis: Child, Name: "c"}, {Axis: Descendant, Name: "b"},
		}},
		{"/a/*/*/c/c/d", false, []Step{
			{Axis: Child, Name: "a"}, {Axis: Child, Name: "*"}, {Axis: Child, Name: "*"},
			{Axis: Child, Name: "c"}, {Axis: Child, Name: "c"}, {Axis: Child, Name: "d"},
		}},
		{"/ns:item/sub-part/x_1", false, []Step{
			{Axis: Child, Name: "ns:item"}, {Axis: Child, Name: "sub-part"}, {Axis: Child, Name: "x_1"},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			x, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tt.in, err)
			}
			if x.Relative != tt.relative {
				t.Errorf("Relative = %v, want %v", x.Relative, tt.relative)
			}
			if len(x.Steps) != len(tt.steps) {
				t.Fatalf("got %d steps, want %d", len(x.Steps), len(tt.steps))
			}
			for i := range tt.steps {
				if x.Steps[i] != tt.steps[i] {
					t.Errorf("step %d = %+v, want %+v", i, x.Steps[i], tt.steps[i])
				}
			}
		})
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{
		"", "/", "//", "/a/", "/a//", "a//", "/a///b", "/a b", "/a/&x", "/a//%",
	} {
		t.Run(in, func(t *testing.T) {
			if _, err := Parse(in); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", in)
			}
		})
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"/a", "/a/b/c", "/a//b", "//a", "//a/b/*", "a/b", "*/c//d", "/a/*/*/c",
	} {
		x := MustParse(in)
		if got := x.String(); got != in {
			t.Errorf("String(Parse(%q)) = %q", in, got)
		}
	}
}

// segment is one run of steps between "//" operators, as SegmentEnd walks
// them: its name tests, and whether a "//" precedes it.
type segment struct {
	Names           []string
	AfterDescendant bool
}

func TestSegments(t *testing.T) {
	tests := []struct {
		in   string
		want []segment
	}{
		{"/a/b/c", []segment{{Names: []string{"a", "b", "c"}}}},
		{"/a//b/c", []segment{
			{Names: []string{"a"}},
			{Names: []string{"b", "c"}, AfterDescendant: true},
		}},
		{"//a", []segment{{Names: []string{"a"}, AfterDescendant: true}}},
		{"*/a//d/*/c//b", []segment{
			{Names: []string{"*", "a"}},
			{Names: []string{"d", "*", "c"}, AfterDescendant: true},
			{Names: []string{"b"}, AfterDescendant: true},
		}},
	}
	for _, tt := range tests {
		x := MustParse(tt.in)
		var segs []segment
		for start, end := 0, 0; start < x.Len(); start = end {
			end = x.SegmentEnd(start)
			seg := segment{AfterDescendant: x.Steps[start].Axis == Descendant}
			for _, st := range x.Steps[start:end] {
				seg.Names = append(seg.Names, st.Name)
			}
			segs = append(segs, seg)
		}
		if len(segs) != len(tt.want) {
			t.Fatalf("%s: got %d segments, want %d", tt.in, len(segs), len(tt.want))
		}
		for i, s := range segs {
			if s.AfterDescendant != tt.want[i].AfterDescendant {
				t.Errorf("%s seg %d AfterDescendant = %v", tt.in, i, s.AfterDescendant)
			}
			if strings.Join(s.Names, "/") != strings.Join(tt.want[i].Names, "/") {
				t.Errorf("%s seg %d names = %v, want %v", tt.in, i, s.Names, tt.want[i].Names)
			}
		}
		if end := x.SegmentEnd(x.Len()); end != x.Len() {
			t.Errorf("%s: SegmentEnd(Len) = %d, want Len", tt.in, end)
		}
	}
}

func TestMatchesPath(t *testing.T) {
	tests := []struct {
		xpe  string
		path string // '/'-joined
		want bool
	}{
		{"/a", "a", true},
		{"/a", "a/b", true}, // selects the a node, which exists
		{"/a", "b/a", false},
		{"/a/b", "a/b/c", true},
		{"/a/b", "a/c/b", false},
		{"/a/*", "a/x/y", true},
		{"/a//c", "a/b/c", true},
		{"/a//c", "a/c", true}, // zero-gap descendant
		{"/a//c", "c/a", false},
		{"//c", "a/b/c", true},
		{"//c", "a/b/d", false},
		{"b/c", "a/b/c", true},
		{"b/c", "a/b/d", false},
		{"*/c", "a/c/x", true},
		{"/a/b//d//f", "a/b/c/d/e/f", true},
		{"/a/b//d//f", "a/b/c/e/f", false},
		{"/a/b/c/d", "a/b/c", false}, // XPE longer than path
		{"*", "anything", true},
		{"/*", "x/y", true},
	}
	for _, tt := range tests {
		t.Run(tt.xpe+" vs "+tt.path, func(t *testing.T) {
			x := MustParse(tt.xpe)
			path := strings.Split(tt.path, "/")
			if got := matchesPath(x, path); got != tt.want {
				t.Errorf("match = %v, want %v", got, tt.want)
			}
			if got := x.MatchesSymPath(symtab.LookupPath(path)); got != tt.want {
				t.Errorf("MatchesSymPath = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSymbolRules(t *testing.T) {
	tests := []struct {
		a, b           string
		overlap, cover bool
	}{
		{"*", "*", true, true},
		{"*", "t", true, true},
		{"t", "*", true, false},
		{"t", "t", true, true},
		{"t1", "t2", false, false},
	}
	for _, tt := range tests {
		if got := SymbolOverlaps(tt.a, tt.b); got != tt.overlap {
			t.Errorf("SymbolOverlaps(%q,%q) = %v, want %v", tt.a, tt.b, got, tt.overlap)
		}
		if got := SymbolCovers(tt.a, tt.b); got != tt.cover {
			t.Errorf("SymbolCovers(%q,%q) = %v, want %v", tt.a, tt.b, got, tt.cover)
		}
	}
}

func TestIsSimpleAndWildcard(t *testing.T) {
	if !MustParse("/a/b").IsSimple() {
		t.Error("/a/b should be simple")
	}
	if MustParse("/a//b").IsSimple() {
		t.Error("/a//b should not be simple")
	}
	if MustParse("/a/b").HasWildcard() {
		t.Error("/a/b has no wildcard")
	}
	if !MustParse("/a/*").HasWildcard() {
		t.Error("/a/* has a wildcard")
	}
}

func TestCloneAndEqual(t *testing.T) {
	x := MustParse("/a/*//b")
	y := x.Clone()
	if !x.Equal(y) {
		t.Fatal("clone not equal")
	}
	y.Steps[0].Name = "z"
	if x.Equal(y) {
		t.Fatal("mutated clone still equal")
	}
	if x.Steps[0].Name != "a" {
		t.Fatal("clone aliases original")
	}
	if x.Equal(MustParse("a/*//b")) {
		t.Error("absolute equals relative")
	}
}

// randomXPE builds a random expression over a small alphabet.
func randomXPE(r *rand.Rand, maxLen int) *XPE {
	n := 1 + r.Intn(maxLen)
	x := &XPE{Relative: r.Intn(2) == 0}
	alphabet := []string{"a", "b", "c", "d", Wildcard}
	for i := 0; i < n; i++ {
		axis := Child
		if i > 0 || !x.Relative {
			if r.Intn(4) == 0 {
				axis = Descendant
			}
		}
		x.Steps = append(x.Steps, Step{Axis: axis, Name: alphabet[r.Intn(len(alphabet))]})
	}
	return x
}

func randomPath(r *rand.Rand, maxLen int) []string {
	n := 1 + r.Intn(maxLen)
	alphabet := []string{"a", "b", "c", "d", "e"}
	p := make([]string, n)
	for i := range p {
		p[i] = alphabet[r.Intn(len(alphabet))]
	}
	return p
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		x := randomXPE(r, 8)
		y, err := Parse(x.String())
		return err == nil && x.Equal(y)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRelativeImpliesFloating checks that a relative XPE matches a path
// iff it matches when prefixed by a leading descendant operator.
func TestQuickRelativeImpliesFloating(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x := randomXPE(r, 6)
		if !x.Relative {
			continue
		}
		anchored := x.Clone()
		anchored.Relative = false
		anchored.Steps[0].Axis = Descendant
		p := randomPath(r, 10)
		if matchesPath(x, p) != matchesPath(anchored, p) {
			t.Fatalf("relative %s and anchored %s disagree on %v", x, anchored, p)
		}
	}
}

// TestQuickWildcardWidens checks monotonicity: replacing a name test by the
// wildcard can only grow the set of matched paths.
func TestQuickWildcardWidens(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		x := randomXPE(r, 6)
		w := x.Clone()
		w.Steps[r.Intn(len(w.Steps))].Name = Wildcard
		p := randomPath(r, 10)
		if matchesPath(x, p) && !matchesPath(w, p) {
			t.Fatalf("%s matches %v but widened %s does not", x, p, w)
		}
	}
}

// TestQuickChildToDescendantWidens checks that loosening a "/" into "//"
// grows the matched set.
func TestQuickChildToDescendantWidens(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		x := randomXPE(r, 6)
		w := x.Clone()
		j := r.Intn(len(w.Steps))
		if j == 0 && w.Relative {
			continue
		}
		w.Steps[j].Axis = Descendant
		p := randomPath(r, 10)
		if matchesPath(x, p) && !matchesPath(w, p) {
			t.Fatalf("%s matches %v but loosened %s does not", x, p, w)
		}
	}
}

// TestQuickPrefixMatchesExtensions: if an absolute XPE matches a path, it
// matches every extension of that path (the selected node still exists).
func TestQuickPrefixMatchesExtensions(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		x := randomXPE(r, 6)
		p := randomPath(r, 8)
		if !matchesPath(x, p) {
			continue
		}
		ext := append(append([]string{}, p...), "zz")
		if !matchesPath(x, ext) {
			t.Fatalf("%s matches %v but not its extension", x, p)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("/a/*/b//c/d/*//e/f/g"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchesSymPath(b *testing.B) {
	x := MustParse("/a/*//d/*/c//b")
	path := symtab.InternPath([]string{"a", "x", "q", "d", "y", "c", "m", "n", "b"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatchesSymPath(path)
	}
}

// matchesPath evaluates x structurally on an element-name path, through the
// string adapter.
func matchesPath(x *XPE, path []string) bool { return x.MatchesPathAttrs(path, nil) }
