package xpath

import (
	"testing"

	"repro/internal/symtab"
)

// TestMatchAllocs pins the evaluator's allocations per call. Predicates are
// read in place from the encoded step and the table engine keeps paths of
// up to 31 elements on the stack, so none of these allocate.
func TestMatchAllocs(t *testing.T) {
	paths := [][]string{{"q", "a", "b"}, {"a", "b", "c"}, {"a", "x", "b", "y", "c"}}
	for _, tc := range []struct {
		expr              string
		attrsMax, symsMax float64
	}{
		{"/a[@x='1']/b", 0, 0},
		{"//a[@x='1']/b", 0, 0},
		{"/a//b[@x='1']//c", 0, 0},
		{"/a/b", 0, 0},
		{"//b//c", 0, 0},
	} {
		x := MustParse(tc.expr)
		for _, p := range paths {
			sp := symtab.InternPath(p)
			attrs := make([]map[string]string, len(p))
			for i := range attrs {
				attrs[i] = map[string]string{"x": "1"}
			}
			if got := testing.AllocsPerRun(100, func() { x.MatchesSymPathAttrs(sp, attrs) }); got > tc.attrsMax {
				t.Errorf("%s on %v: MatchesSymPathAttrs allocates %v, want <= %v", tc.expr, p, got, tc.attrsMax)
			}
			if got := testing.AllocsPerRun(100, func() { x.MatchesSymPath(sp) }); got > tc.symsMax {
				t.Errorf("%s on %v: MatchesSymPath allocates %v, want <= %v", tc.expr, p, got, tc.symsMax)
			}
		}
	}
}

// TestUninternedElementMatchesOnlyWildcard: an element name that was never
// interned looks up as symtab.None, and only a wildcard step accepts it —
// a concrete step's name is interned by Syms, so it can never equal None.
func TestUninternedElementMatchesOnlyWildcard(t *testing.T) {
	foreign := "never-interned-element-7f3a"
	path := append(symtab.InternPath([]string{"a"}), symtab.LookupPath([]string{foreign})...)
	if path[1] != symtab.None {
		t.Fatalf("LookupPath(%q) = %v, want None", foreign, path[1])
	}
	for _, tc := range []struct {
		expr string
		want bool
	}{
		{"/a/*", true},
		{"//*", true},
		{"/a//*", true},
		{"/a/b", false},
		{"//b", false},
		{"/*/*/*", false},
	} {
		x := MustParse(tc.expr)
		if got := x.MatchesSymPath(path); got != tc.want {
			t.Errorf("%s on a/%s: MatchesSymPath = %v, want %v", tc.expr, foreign, got, tc.want)
		}
		if got := x.MatchesSymPathAttrs(path, nil); got != tc.want {
			t.Errorf("%s on a/%s: MatchesSymPathAttrs = %v, want %v", tc.expr, foreign, got, tc.want)
		}
	}
	if _, ok := symtab.Lookup(foreign); ok {
		t.Fatal("matching interned the foreign element")
	}
}
