package xpath_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// FuzzEvaluatorAgreesWithReference holds the evaluator to the paper's
// definition as transcribed in oracle.Selects, which shares no code with
// it. For every parsed expression it builds sample annotated paths — the
// fuzzed one, the expression's own names, and those with strangers mixed
// in, each under attribute sets that satisfy the expression's predicates on
// the elements mask selects and contradict them on the rest — and checks
// MatchesSymPath and MatchesSymPathAttrs, with and without attributes.
// Expressions run up to MaxSteps steps: the evaluator's cost is linear in
// the path whatever the number of "//" steps.
func FuzzEvaluatorAgreesWithReference(f *testing.F) {
	for _, seed := range []struct {
		expr, path string
		mask       uint16
	}{
		{"/a/b", "a/b/c", 0},
		{"//a[@x='1']/b", "q/a/b", 0xffff},
		{"/a//b[@x='1']//c", "a/x/b/y/c", 0x5},
		{"//b//c", "b/c", 0},
		{"a/*//c", "q/a/z/c", 0},
		{"*[@k='v']/b[@k='w']", "a/b", 0x3},
		{"/a/*/c/d", "a/x/c/d/e", 0},
		{"//*//*//*", "a/b", 0},
		{"/a[@x='1'][@y=\"2\"]", "a", 0x1},
	} {
		f.Add(seed.expr, seed.path, seed.mask)
	}
	f.Fuzz(func(t *testing.T, src, pathStr string, mask uint16) {
		if len(src) > 4*xpath.MaxSteps {
			return
		}
		x, err := xpath.Parse(src)
		if err != nil || x.Len() > xpath.MaxSteps {
			return
		}
		var fuzzed []string
		for _, el := range strings.Split(pathStr, "/") {
			if el != "" && len(fuzzed) < 10 {
				fuzzed = append(fuzzed, el)
			}
		}
		// own holds the expression's names, a wildcard read as "w"; good
		// and bad hold every predicate it states, satisfied and violated.
		own := make([]string, x.Len())
		good, bad := map[string]string{}, map[string]string{}
		for i, s := range x.Steps {
			own[i] = s.Name
			if s.IsWildcard() {
				own[i] = "w"
			}
			for _, p := range xpath.DecodePreds(s.Preds) {
				good[p.Attr] = p.Value
				bad[p.Attr] = p.Value + "!"
			}
		}
		paths := [][]string{fuzzed, own, append([]string{"q"}, own...)}
		var mixed []string
		for _, n := range own {
			mixed = append(mixed, n, "q")
		}
		paths = append(paths, mixed)

		x.Syms() // intern the expression's names before looking paths up
		for _, path := range paths {
			sp := symtab.LookupPath(path)
			attrs := make([]map[string]string, len(path))
			for i := range attrs {
				attrs[i] = bad
				if mask&(1<<(i%16)) != 0 {
					attrs[i] = good
				}
			}
			if got, want := x.MatchesSymPath(sp), oracle.Selects(x, path, nil, false); got != want {
				t.Fatalf("%s on %v: MatchesSymPath %v, reference %v", x, path, got, want)
			}
			if got, want := x.MatchesSymPathAttrs(sp, attrs), oracle.Selects(x, path, attrs, true); got != want {
				t.Fatalf("%s on %v %v: MatchesSymPathAttrs %v, reference %v", x, path, attrs, got, want)
			}
			if got, want := x.MatchesSymPathAttrs(sp, nil), oracle.Selects(x, path, nil, true); got != want {
				t.Fatalf("%s on %v: MatchesSymPathAttrs without attributes %v, reference %v", x, path, got, want)
			}
		}
	})
}

// TestMatchTableAgreesWithRecursion draws 5,000 random expressions and
// annotated paths over a small alphabet, so that names, wildcards, axes and
// predicates collide often, and holds the public entry points and the
// string adapter to oracle.Selects, with and without predicates.
func TestMatchTableAgreesWithRecursion(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	names := []string{"a", "b", "c", xpath.Wildcard}
	for trial := 0; trial < 5000; trial++ {
		nsteps := 1 + r.Intn(5)
		steps := make([]xpath.Step, nsteps)
		for i := range steps {
			axis := xpath.Child
			if r.Intn(2) == 0 {
				axis = xpath.Descendant
			}
			var preds string
			if r.Intn(4) == 0 {
				preds = xpath.EncodePreds([]xpath.Pred{{Attr: "k", Value: names[r.Intn(2)]}})
			}
			steps[i] = xpath.Step{Axis: axis, Name: names[r.Intn(len(names))], Preds: preds}
		}
		relative := r.Intn(2) == 0
		if relative {
			steps[0].Axis = xpath.Child
		}
		path := make([]string, r.Intn(7))
		attrs := make([]map[string]string, len(path))
		for i := range path {
			path[i] = names[r.Intn(3)] // concrete names only
			if r.Intn(2) == 0 {
				attrs[i] = map[string]string{"k": names[r.Intn(2)]}
			}
		}
		x := xpath.New(relative, steps...)
		sp := symtab.InternPath(path)
		if got, want := x.MatchesSymPath(sp), oracle.Selects(x, path, nil, false); got != want {
			t.Fatalf("trial %d: %s on %v: MatchesSymPath %v, reference %v", trial, x, path, got, want)
		}
		want := oracle.Selects(x, path, attrs, true)
		if got := x.MatchesSymPathAttrs(sp, attrs); got != want {
			t.Fatalf("trial %d: %s on %v %v: MatchesSymPathAttrs %v, reference %v", trial, x, path, attrs, got, want)
		}
		if got := x.MatchesPathAttrs(path, attrs); got != want {
			t.Fatalf("trial %d: %s on %v %v: MatchesPathAttrs %v, reference %v", trial, x, path, attrs, got, want)
		}
	}
}
