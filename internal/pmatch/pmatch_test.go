package pmatch

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// buildFrom compiles a set of expressions, using each expression's String as
// its payload.
func buildFrom(exprs ...string) (*Automaton, []*xpath.XPE) {
	b := NewBuilder()
	xs := make([]*xpath.XPE, len(exprs))
	for i, e := range exprs {
		xs[i] = xpath.MustParse(e)
		b.Add(xs[i], e)
	}
	return b.Build(), xs
}

// structuralSet runs MatchStructural and returns the sorted payload strings.
func structuralSet(a *Automaton, path []symtab.Sym) []string {
	var got []string
	a.MatchStructural(path, func(d any) { got = append(got, d.(string)) })
	sort.Strings(got)
	return got
}

// flatStructural is the per-XPE oracle: every expression evaluated
// independently by the reference, predicates ignored.
func flatStructural(xs []*xpath.XPE, path []symtab.Sym) []string {
	var got []string
	for _, i := range oracle.Flat(xs, oracle.Names(path), nil, false) {
		got = append(got, xs[i].String())
	}
	sort.Strings(got)
	return got
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchAgainstFlatOracle(t *testing.T) {
	exprs := []string{
		"/a", "/a/b", "/a/b/c", "/a/*/c", "/a//c", "//c", "//b/c",
		"a", "b/c", "*/c", "/x//y//z", "//*", "/*", "/a/b/c/d",
		"/a//b//c", "c//d",
	}
	auto, xs := buildFrom(exprs...)
	paths := [][]string{
		{"a"}, {"a", "b"}, {"a", "b", "c"}, {"a", "x", "c"},
		{"a", "b", "c", "d"}, {"c"}, {"x", "y", "z"}, {"x", "q", "y", "q", "z"},
		{"b", "c"}, {"q"}, {"a", "a", "b", "b", "c", "c"},
		{"c", "x", "d"}, {"a", "b", "x", "c"}, {},
	}
	for _, p := range paths {
		sp := symtab.InternPath(p)
		got := structuralSet(auto, sp)
		want := flatStructural(xs, sp)
		if !eq(got, want) {
			t.Errorf("path %v: automaton=%v flat=%v", p, got, want)
		}
	}
}

func TestMatchUnknownSymbolsOnlyMatchWildcards(t *testing.T) {
	auto, xs := buildFrom("/a/b", "/a/*", "//b", "/*/*")
	// LookupPath maps never-interned names to None; only wildcard steps may
	// match those elements, exactly like the per-XPE matchers.
	path := symtab.LookupPath([]string{"a", "never-interned-name-xyz"})
	got := structuralSet(auto, path)
	want := flatStructural(xs, path)
	if !eq(got, want) {
		t.Fatalf("automaton=%v flat=%v", got, want)
	}
	if len(got) != 2 { // "/a/*" and "/*/*"
		t.Fatalf("want exactly the wildcard matches, got %v", got)
	}
}

func TestMatchLiteralStarElement(t *testing.T) {
	// A path element literally named "*" interns to the Wildcard symbol; a
	// concrete step must not match it, a wildcard step must.
	auto, xs := buildFrom("/a/b", "/a/*")
	path := symtab.InternPath([]string{"a", "*"})
	got := structuralSet(auto, path)
	want := flatStructural(xs, path)
	if !eq(got, want) || !eq(got, []string{"/a/*"}) {
		t.Fatalf("automaton=%v flat=%v", got, want)
	}
}

func TestMatchPredicatePostFilter(t *testing.T) {
	b := NewBuilder()
	xEn := xpath.MustParse(`/claim[@lang='en']/detail`)
	xAny := xpath.MustParse(`/claim/detail`)
	b.Add(xEn, "en")
	b.Add(xAny, "any")
	auto := b.Build()

	path := symtab.InternPath([]string{"claim", "detail"})
	collect := func(attrs []map[string]string) []string {
		var got []string
		auto.Match(path, attrs, func(d any) { got = append(got, d.(string)) })
		sort.Strings(got)
		return got
	}
	if got := collect([]map[string]string{{"lang": "en"}, nil}); !eq(got, []string{"any", "en"}) {
		t.Fatalf("matching attrs: got %v", got)
	}
	if got := collect([]map[string]string{{"lang": "fr"}, nil}); !eq(got, []string{"any"}) {
		t.Fatalf("non-matching attrs: got %v", got)
	}
	if got := collect(nil); !eq(got, []string{"any"}) {
		t.Fatalf("nil attrs must fail predicates: got %v", got)
	}
	// MatchStructural ignores predicates entirely.
	var structural []string
	auto.MatchStructural(path, func(d any) { structural = append(structural, d.(string)) })
	sort.Strings(structural)
	if !eq(structural, []string{"any", "en"}) {
		t.Fatalf("structural: got %v", structural)
	}
}

func TestDuplicateExpressionsEachReported(t *testing.T) {
	b := NewBuilder()
	b.Add(xpath.MustParse("/a/b"), "first")
	b.Add(xpath.MustParse("/a/b"), "second")
	auto := b.Build()
	var got []string
	auto.MatchStructural(symtab.InternPath([]string{"a", "b"}), func(d any) { got = append(got, d.(string)) })
	sort.Strings(got)
	if !eq(got, []string{"first", "second"}) {
		t.Fatalf("got %v", got)
	}
	// Shared accept state, two entries.
	if s := auto.Stats(); s.Entries != 2 || s.AcceptStates != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEntryReportedOncePerRun(t *testing.T) {
	// A relative expression can match at several start positions; the entry
	// must still be visited exactly once.
	b := NewBuilder()
	b.Add(xpath.MustParse("a"), "rel-a")
	auto := b.Build()
	var n int
	auto.MatchStructural(symtab.InternPath([]string{"a", "a", "a"}), func(any) { n++ })
	if n != 1 {
		t.Fatalf("visited %d times, want 1", n)
	}
}

func TestPrefixSharing(t *testing.T) {
	// "/a/b/c" and "/a/b/d" share the "/a/b" spine: 1 start + 2 shared + 2
	// distinct = 5 states. A third expression "/a/b" adds no state at all.
	b := NewBuilder()
	b.Add(xpath.MustParse("/a/b/c"), 1)
	b.Add(xpath.MustParse("/a/b/d"), 2)
	b.Add(xpath.MustParse("/a/b"), 3)
	s := b.Build().Stats()
	if s.States != 5 {
		t.Fatalf("want 5 states, got %+v", s)
	}
	if s.Entries != 3 || s.AcceptStates != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSkipStateSharing(t *testing.T) {
	// "//a" and "//b" share the start state's skip state.
	b := NewBuilder()
	b.Add(xpath.MustParse("//a"), 1)
	b.Add(xpath.MustParse("//b"), 2)
	b.Add(xpath.MustParse("c"), 3) // relative: same skip state again
	s := b.Build().Stats()
	// start + skip + 3 accept states
	if s.States != 5 {
		t.Fatalf("want 5 states, got %+v", s)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	empty := NewBuilder().Build()
	empty.MatchStructural(symtab.InternPath([]string{"a"}), func(any) {
		t.Fatal("empty automaton must match nothing")
	})
	if s := empty.Stats(); s.States != 1 || s.Entries != 0 {
		t.Fatalf("stats %+v", s)
	}

	b := NewBuilder()
	b.Add(nil, "nil")                    // ignored
	b.Add(&xpath.XPE{}, "zero")          // zero steps: matches nothing
	b.Add(xpath.New(true), "zero-steps") // ditto
	if b.Len() != 0 {
		t.Fatalf("degenerate adds must be ignored, len=%d", b.Len())
	}
	auto := b.Build()
	auto.MatchStructural(symtab.InternPath([]string{"a"}), func(any) {
		t.Fatal("degenerate entries must match nothing")
	})
	// Empty path matches nothing either.
	full, _ := buildFrom("/a", "a", "//a")
	full.MatchStructural(nil, func(any) { t.Fatal("empty path must match nothing") })
}

func TestHandBuiltRelativeDescendantFirstStep(t *testing.T) {
	// Parse never produces a relative XPE whose first axis is Descendant,
	// but New can; its language equals the plain relative form.
	x := xpath.New(true, xpath.Step{Axis: xpath.Descendant, Name: "a"}, xpath.Step{Axis: xpath.Child, Name: "b"})
	b := NewBuilder()
	b.Add(x, "x")
	auto := b.Build()
	for _, tc := range []struct {
		path []string
		want bool
	}{
		{[]string{"a", "b"}, true},
		{[]string{"q", "a", "b"}, true},
		{[]string{"a", "q", "b"}, false},
	} {
		sp := symtab.InternPath(tc.path)
		var hit bool
		auto.MatchStructural(sp, func(any) { hit = true })
		if hit != tc.want {
			t.Errorf("path %v: automaton=%v want %v", tc.path, hit, tc.want)
		}
		if flat := oracle.Selects(x, tc.path, nil, false); flat != tc.want {
			t.Errorf("path %v: oracle disagrees (%v)", tc.path, flat)
		}
	}
}

func TestConcurrentMatch(t *testing.T) {
	exprs := []string{"/a/b", "/a//c", "//b/c", "a", "*/c", "/a/*/c/d"}
	auto, xs := buildFrom(exprs...)
	paths := make([][]symtab.Sym, 0, 16)
	for _, p := range [][]string{
		{"a", "b"}, {"a", "b", "c"}, {"a", "x", "c", "d"}, {"b", "c"},
		{"q", "a", "b", "c"}, {"a"}, {"x"},
	} {
		paths = append(paths, symtab.InternPath(p))
	}
	want := make([][]string, len(paths))
	for i, p := range paths {
		want[i] = flatStructural(xs, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := iter % len(paths)
				if got := structuralSet(auto, paths[i]); !eq(got, want[i]) {
					t.Errorf("path %d: got %v want %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestStatsEdges(t *testing.T) {
	b := NewBuilder()
	b.Add(xpath.MustParse("/a//b"), 1)
	s := b.Build().Stats()
	// start --a--> s1 (eps)--> skip(self-loop) --b--> accept:
	// edges = a, eps, self-loop, b = 4; states = start, s1, skip, accept = 4.
	if s.States != 4 || s.Edges != 4 || s.AcceptStates != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestDeepSharedWorkload pins the automaton on a larger mixed workload where
// the frontier stays wide (many live skip states).
func TestDeepSharedWorkload(t *testing.T) {
	var exprs []string
	for i := 0; i < 8; i++ {
		exprs = append(exprs,
			fmt.Sprintf("/r/s%d", i),
			fmt.Sprintf("//s%d/t", i),
			fmt.Sprintf("s%d//u", i),
			fmt.Sprintf("/r/*/s%d//t//u", i),
		)
	}
	auto, xs := buildFrom(exprs...)
	paths := [][]string{
		{"r", "s3", "t"},
		{"r", "x", "s5", "q", "t", "q", "u"},
		{"s1", "a", "b", "u"},
		{"r", "s0", "s1", "s2", "t", "u"},
	}
	for _, p := range paths {
		sp := symtab.InternPath(p)
		if got, want := structuralSet(auto, sp), flatStructural(xs, sp); !eq(got, want) {
			t.Errorf("path %v: automaton=%v flat=%v", p, got, want)
		}
	}
}

func TestBuilderUseAfterBuildPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := NewBuilder()
	b.Add(xpath.MustParse("/a"), 1)
	b.Build()
	mustPanic("Add after Build", func() { b.Add(xpath.MustParse("/b"), 2) })
	mustPanic("Build after Build", func() { b.Build() })
}

func TestBuilderConcurrentUsePanics(t *testing.T) {
	b := NewBuilder()
	b.begin() // simulate another goroutine mid-Add
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent Add did not panic")
		}
	}()
	b.Add(xpath.MustParse("/a"), 1)
}
