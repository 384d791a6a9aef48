package xpath

import (
	"strings"
	"testing"
	"time"

	"repro/internal/symtab"
)

// TestMatchAllocs pins the evaluator's allocations per call. Predicates are
// read in place from the encoded step and the active steps are one machine
// word, so none of these allocate, on short paths or on a path as deep as
// the wire allows.
func TestMatchAllocs(t *testing.T) {
	deep := make([]string, 256)
	for i := range deep {
		deep[i] = []string{"a", "x", "b", "y", "c"}[i%5]
	}
	paths := [][]string{{"q", "a", "b"}, {"a", "b", "c"}, {"a", "x", "b", "y", "c"}, deep}
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
				t.Errorf("%s on %d elements: MatchesSymPathAttrs allocates %v, want <= %v", tc.expr, len(p), got, tc.attrsMax)
			}
			if got := testing.AllocsPerRun(100, func() { x.MatchesSymPath(sp) }); got > tc.symsMax {
				t.Errorf("%s on %d elements: MatchesSymPath allocates %v, want <= %v", tc.expr, len(p), got, tc.symsMax)
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

// A wire-decoded expression made of many descendant wildcard steps used to
// drive a recursive matcher into exponential backtracking — enough to wedge
// a broker's matching workers. The evaluator is linear in the path, so the
// longest such expression the wire admits answers in microseconds.
func TestHostileDescendantExpressionCompletes(t *testing.T) {
	steps := make([]Step, 0, MaxSteps)
	for i := 0; i < MaxSteps-1; i++ {
		steps = append(steps, Step{Axis: Descendant, Name: Wildcard})
	}
	steps = append(steps, Step{Axis: Child, Name: "never"})
	x := New(false, steps...)
	if err := x.Validate(); err != nil {
		t.Fatalf("hostile expression must be admissible: %v", err)
	}
	path := make([]string, 2*MaxSteps)
	for i := range path {
		path[i] = "a"
	}

	done := make(chan bool, 1)
	go func() { done <- matchesPath(x, path) }()
	select {
	case got := <-done:
		if got {
			t.Error("expression with unmatched trailing step reported a match")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("match did not return — exponential backtracking is back")
	}

	// The same expression minus the impossible tail must still match.
	ok := New(false, steps[:MaxSteps-1]...)
	if !matchesPath(ok, path) {
		t.Error("pure descendant-wildcard expression must match a long path")
	}
	if matchesPath(ok, path[:MaxSteps-2]) {
		t.Error("descendant-wildcard expression matched a path shorter than its steps")
	}
}

// TestMaxSteps: Parse and Validate admit MaxSteps steps and reject one
// more, and the evaluator answers false, without panicking, for a
// hand-built expression past the bound.
func TestMaxSteps(t *testing.T) {
	src := strings.Repeat("//a", MaxSteps)
	x, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse of %d steps: %v", MaxSteps, err)
	}
	if err := x.Validate(); err != nil {
		t.Fatalf("Validate of %d steps: %v", MaxSteps, err)
	}
	path := make([]string, MaxSteps+1)
	for i := range path {
		path[i] = "a"
	}
	if !matchesPath(x, path) {
		t.Errorf("%d-step expression does not match its own path", MaxSteps)
	}
	if _, err := Parse(src + "//a"); err == nil {
		t.Errorf("Parse accepted %d steps", MaxSteps+1)
	}
	long := New(false, append(x.Steps, Step{Axis: Descendant, Name: "a"})...)
	if err := long.Validate(); err == nil {
		t.Errorf("Validate accepted %d steps", MaxSteps+1)
	}
	if matchesPath(long, path) {
		t.Errorf("%d-step expression matched", MaxSteps+1)
	}
}

// TestSkips pins the skip rule: a descendant step, or the first step of a
// relative expression.
func TestSkips(t *testing.T) {
	for _, tc := range []struct {
		expr string
		want []bool
	}{
		{"/a/b", []bool{false, false}},
		{"//a/b", []bool{true, false}},
		{"a/b//c", []bool{true, false, true}},
		{"/a//*/c", []bool{false, true, false}},
	} {
		x := MustParse(tc.expr)
		for i, want := range tc.want {
			if got := x.Skips(i); got != want {
				t.Errorf("%s: Skips(%d) = %v, want %v", tc.expr, i, got, want)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	for _, src := range []string{"/a/b", "//a//*", "a/b[@x='1']", "/a//b/c"} {
		if err := MustParse(src).Validate(); err != nil {
			t.Errorf("parsed %q fails Validate: %v", src, err)
		}
	}
	bad := []*XPE{
		New(false),                           // no steps
		New(false, Step{Axis: 7, Name: "a"}), // unknown axis
		New(false, Step{Axis: Child, Name: ""}),
		New(false, Step{Axis: Child, Name: "a/b"}),
		New(true, Step{Axis: Descendant, Name: "a"}), // relative with leading //
		New(false, Step{Axis: Child, Name: "a", Preds: "garbage"}),
	}
	for i, x := range bad {
		if err := x.Validate(); err == nil {
			t.Errorf("bad[%d] (%#v) passed Validate", i, x.Steps)
		}
	}
}
