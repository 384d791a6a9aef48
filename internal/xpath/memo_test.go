package xpath

import (
	"testing"
	"time"
)

// A wire-decoded expression made of many descendant wildcard steps used to
// drive the recursive matcher into exponential backtracking — enough to
// wedge a broker's matching workers. The memoised table must answer in
// microseconds.
func TestHostileDescendantExpressionCompletes(t *testing.T) {
	steps := make([]Step, 0, 41)
	for i := 0; i < 40; i++ {
		steps = append(steps, Step{Axis: Descendant, Name: Wildcard})
	}
	steps = append(steps, Step{Axis: Child, Name: "never"})
	x := New(false, steps...)
	path := make([]string, 80)
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
	ok := New(false, steps[:40]...)
	if !matchesPath(ok, path) {
		t.Error("pure descendant-wildcard expression must match a long path")
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
