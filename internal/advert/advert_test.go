package advert

import (
	"testing"

	"repro/internal/xpath"
)

func TestParseAndString(t *testing.T) {
	for _, in := range []string{
		"/a",
		"/a/b/c",
		"/a/*/c",
		"/a/*/c(/e/d)+/*/c/e",
		"/a(/b)+",
		"/x(/a(/b)+/c)+/y",
		"(/a/b)+/c",
	} {
		t.Run(in, func(t *testing.T) {
			a, err := Parse(in)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.String(); got != in {
				t.Errorf("round trip = %q, want %q", got, in)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"", "a/b", "/a(", "/a()+", "/a(/b)", "/a(/b)*", "/a)/b", "/a(/b", "/a//b",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		in   string
		want Class
	}{
		{"/a/b/c", NonRecursive},
		{"/a(/b/c)+/d", SimpleRecursive},
		{"/a(/b)+/c(/d)+", SeriesRecursive},
		{"/a(/b(/c)+)+/d", EmbeddedRecursive},
		{"/a(/b(/c)+/d)+(/e)+", EmbeddedRecursive},
	}
	for _, tt := range tests {
		if got := MustParse(tt.in).Classify(); got != tt.want {
			t.Errorf("Classify(%s) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestSplitSimple(t *testing.T) {
	a1, a2, a3, ok := MustParse("/a/*/c(/e/d)+/*/c/e").SplitSimple()
	if !ok {
		t.Fatal("not simple-recursive")
	}
	if len(a1) != 3 || a1[2] != "c" || len(a2) != 2 || a2[0] != "e" || len(a3) != 3 || a3[2] != "e" {
		t.Errorf("split = %v %v %v", a1, a2, a3)
	}
	if _, _, _, ok := MustParse("/a/b").SplitSimple(); ok {
		t.Error("non-recursive advertisement split as simple-recursive")
	}
}

func TestMinLen(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"/a/b", 2},
		{"/a(/b/c)+/d", 4},
		{"/a(/b(/c)+)+", 3},
	}
	for _, tt := range tests {
		if got := MustParse(tt.in).MinLen(); got != tt.want {
			t.Errorf("MinLen(%s) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

// TestAbsExprAndAdvPaperExample encodes the worked example from Section 3.2:
// a = /b/*/*/c/c/d and s = /*/c/*/b/c do not overlap (mismatch at the
// fourth pair).
func TestAbsExprAndAdvPaperExample(t *testing.T) {
	adv := []string{"b", "*", "*", "c", "c", "d"}
	s := xpath.MustParse("/*/c/*/b/c")
	if AbsExprAndAdv(adv, s) {
		t.Error("paper example should not overlap")
	}
	s2 := xpath.MustParse("/b/*/*/c")
	if !AbsExprAndAdv(adv, s2) {
		t.Error("prefix-compatible subscription should overlap")
	}
	long := xpath.MustParse("/b/*/*/c/c/d/e")
	if AbsExprAndAdv(adv, long) {
		t.Error("subscription longer than advertisement cannot overlap")
	}
}

// TestDesExprAndAdvPaperExample encodes the Section 3.2 descendant example:
// a = /a/*/e/*/d/*/c/b and s = */a//d/*/c//b overlap.
func TestDesExprAndAdvPaperExample(t *testing.T) {
	adv := []string{"a", "*", "e", "*", "d", "*", "c", "b"}
	s := xpath.MustParse("*/a//d/*/c//b")
	if !DesExprAndAdv(adv, s) {
		t.Error("paper example should overlap")
	}
}

func TestRelExprAndAdv(t *testing.T) {
	tests := []struct {
		adv  string // '/'-separated names
		sub  string
		want bool
	}{
		{"/a/b/c/d", "b/c", true},
		{"/a/b/c/d", "c/b", false},
		{"/a/*/c/d", "b/c", true},
		{"/a/b/c/d", "*/*/*/*", true},
		{"/a/b/c", "*/*/*/*", false}, // longer than advertisement
		{"/a/b/a/b/c", "a/b/c", true},
		{"/a/b/a/b/d", "a/b/c", false},
		{"/x/*/*/y", "*/*", true},
	}
	for _, tt := range tests {
		adv := MustParse(tt.adv).FlatNames()
		s := xpath.MustParse(tt.sub)
		if got := RelExprAndAdv(adv, s); got != tt.want {
			t.Errorf("RelExprAndAdv(%s, %s) = %v, want %v", tt.adv, tt.sub, got, tt.want)
		}
	}
}

// TestFig3PaperExample encodes the Figure 3 worked example:
// a = /a/*/c(/e/d)+/*/c/e and s = /*/a/c/*/d/e/d/* match with the recursive
// pattern repeated twice.
func TestFig3PaperExample(t *testing.T) {
	a := MustParse("/a/*/c(/e/d)+/*/c/e")
	s := xpath.MustParse("/*/a/c/*/d/e/d/*")
	a1, a2, a3, ok := a.SplitSimple()
	if !ok {
		t.Fatal("split failed")
	}
	if !AbsExprAndSimRecAdv(a1, a2, a3, s) {
		t.Error("Figure 3 example should match")
	}
	if !a.Overlaps(s) {
		t.Error("automaton matcher disagrees with Figure 3 example")
	}
}

func TestOverlapsRecursive(t *testing.T) {
	tests := []struct {
		adv, sub string
		want     bool
	}{
		{"/a(/b)+/c", "/a/b/c", true},
		{"/a(/b)+/c", "/a/b/b/b/c", true},
		{"/a(/b)+/c", "/a/c", false},
		{"/a(/b)+/c", "/a/b/c/c", false},
		{"/a(/b)+/c", "//c", true},
		{"/a(/b)+/c", "b/b/b", true},
		{"/a(/b)+/c", "b/c/b", false},
		{"/a(/b/c)+/d", "/a/b/c/b/c/d", true},
		{"/a(/b/c)+/d", "/a/b/b/c/d", false},
		{"/x(/a(/b)+/c)+/y", "/x/a/b/b/c/a/b/c/y", true},
		{"/x(/a(/b)+/c)+/y", "/x/a/c/y", false},
		{"/a(/b)+(/c)+/d", "/a/b/b/c/c/c/d", true},
		{"/a(/b)+(/c)+/d", "/a/c/b/d", false},
		{"/a(/b)+/c", "/*/*/*/*/*", true},
		{"/a(/b)+", "//b/b/b/b/b/b/b/b", true},
		// A relative start or a segment after "//" floats, so it can need
		// one repetition more than Figure 3's bound for anchored steps.
		{"/p/q(/x)+", "x/x/x", true},
		{"/p/q(/x)+", "x/x/x/x", true},
		{"/p/q(/x)+", "x/q", false},
		{"/p(/x/y)+", "y/x/y/x", true},
		{"/p/q(/x/y)+", "//y/x/y/x", true},
		{"/p/q(/x/y)+", "//y/y", false},
	}
	for _, tt := range tests {
		a := MustParse(tt.adv)
		s := xpath.MustParse(tt.sub)
		if got := a.Overlaps(s); got != tt.want {
			t.Errorf("Overlaps(%s, %s) = %v, want %v", tt.adv, tt.sub, got, tt.want)
		}
		if a.Classify() != SimpleRecursive {
			continue
		}
		if got := OverlapsSimRec(a, s); got != tt.want {
			t.Errorf("OverlapsSimRec(%s, %s) = %v, want %v", tt.adv, tt.sub, got, tt.want)
		}
	}
}

func TestMatchesPath(t *testing.T) {
	tests := []struct {
		adv  string
		path []string
		want bool
	}{
		{"/a/b", []string{"a", "b"}, true},
		{"/a/b", []string{"a"}, false},
		{"/a/b", []string{"a", "b", "c"}, false}, // exact length
		{"/a/*", []string{"a", "z"}, true},
		{"/a(/b)+/c", []string{"a", "b", "c"}, true},
		{"/a(/b)+/c", []string{"a", "b", "b", "b", "c"}, true},
		{"/a(/b)+/c", []string{"a", "c"}, false},
		{"/x(/a(/b)+/c)+/y", []string{"x", "a", "b", "c", "a", "b", "b", "c", "y"}, true},
		{"/x(/a(/b)+/c)+/y", []string{"x", "a", "b", "a", "b", "c", "y"}, false},
	}
	for _, tt := range tests {
		a := MustParse(tt.adv)
		if got := a.MatchesPath(tt.path); got != tt.want {
			t.Errorf("MatchesPath(%s, %v) = %v, want %v", tt.adv, tt.path, got, tt.want)
		}
	}
}

func TestExpansions(t *testing.T) {
	a := MustParse("/a(/b)+/c")
	var got []string
	a.Expansions(5, func(w []string) bool {
		got = append(got, joinPath(w))
		return true
	})
	want := map[string]bool{"a/b/c": true, "a/b/b/c": true, "a/b/b/b/c": true}
	if len(got) != len(want) {
		t.Fatalf("expansions = %v", got)
	}
	for _, w := range got {
		if !want[w] {
			t.Errorf("unexpected expansion %q", w)
		}
	}
}

func TestExpansionsNested(t *testing.T) {
	// Nested groups must allow different inner counts per outer iteration.
	a := MustParse("/x(/a(/b)+)+")
	found := false
	a.Expansions(7, func(w []string) bool {
		if joinPath(w) == "x/a/b/a/b/b" {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("expansion with varying inner counts not enumerated")
	}
}

func joinPath(w []string) string {
	out := ""
	for i, s := range w {
		if i > 0 {
			out += "/"
		}
		out += s
	}
	return out
}

func TestToXPE(t *testing.T) {
	x := MustParse("/a/*/c").ToXPE()
	if x.String() != "/a/*/c" || x.Relative {
		t.Errorf("ToXPE = %v", x)
	}
}

func TestEqualClone(t *testing.T) {
	a := MustParse("/x(/a(/b)+/c)+/y")
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Items[1].Group[1].Group[0].Name = "z"
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Items[1].Group[1].Group[0].Name != "b" {
		t.Fatal("clone aliases original")
	}
}
