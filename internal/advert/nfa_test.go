package advert

import (
	"math/rand"
	"testing"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// TestCompileAllocsPinned pins the allocations of compiling a DTD
// advertisement's automaton: the struct and its block of rows. The loop-backs
// the closures are built from stay on the stack.
func TestCompileAllocsPinned(t *testing.T) {
	const ceiling = 2
	var rec, flat *Advertisement
	for _, a := range nitfAdverts() {
		if a.IsRecursive() && rec == nil {
			rec = a
		}
		if !a.IsRecursive() && flat == nil {
			flat = a
		}
	}
	for _, a := range []*Advertisement{rec, flat} {
		if got := testing.AllocsPerRun(100, func() { compileNFA(a.toks) }); got > ceiling {
			t.Errorf("compiling %s: %.0f allocations, want at most %d", a, got, ceiling)
		}
	}
}

// TestWideAdvertisementAgreesWithPaper holds automata of more than 64
// states — the ones whose state sets take more than one word — to
// the paper's algorithms: simple-recursive advertisements a1(a2)+a3 against
// Figure 3 (AbsExprAndSimRecAdv), its expansion-based generalisation
// (OverlapsSimRec) and the non-recursive algorithms over enumerated
// expansions, and MatchesPath against membership in the expansion set.
func TestWideAdvertisementAgreesWithPaper(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	alphabet := []string{"a", "b", "c", "*"}
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = alphabet[r.Intn(len(alphabet))]
		}
		return out
	}
	// verdicts counts each check's outcomes, so the test fails if one side
	// never comes up.
	var verdicts struct{ paths, overlaps [2]int }
	for round := 0; round < 40; round++ {
		a1, a2, a3 := names(r.Intn(25)), names(1+r.Intn(25)), names(r.Intn(25))
		if len(a1)+len(a2)+len(a3) < 64 {
			a2 = append(a2, names(64-len(a1)-len(a2)-len(a3))...)
		}
		items := make([]Item, 0, len(a1)+len(a3)+1)
		for _, n := range a1 {
			items = append(items, Sym(n))
		}
		group := make([]Item, len(a2))
		for i, n := range a2 {
			group[i] = Sym(n)
		}
		items = append(items, Rep(group...))
		for _, n := range a3 {
			items = append(items, Sym(n))
		}
		a := NewAdvertisement(items...)
		if n := a.nfa(); n.words < 2 || n.states() <= 64 {
			t.Fatalf("%s: %d states in %d-word sets; want more than 64 states", a, n.states(), n.words)
		}
		expansion := func(reps int) []string {
			w := append([]string(nil), a1...)
			for i := 0; i < reps; i++ {
				w = append(w, a2...)
			}
			return append(w, a3...)
		}
		// isExpansion is the membership oracle for a concrete path.
		isExpansion := func(path []string) bool {
			for reps := 1; len(expansion(reps)) <= len(path); reps++ {
				w := expansion(reps)
				if len(w) != len(path) {
					continue
				}
				ok := true
				for i := range w {
					if w[i] != "*" && w[i] != path[i] {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
			return false
		}

		for i := 0; i < 50; i++ {
			// A concrete path: an expansion with its wildcards filled in,
			// sometimes cut, extended or given a foreign element.
			path := expansion(1 + r.Intn(3))
			for j := range path {
				if path[j] == "*" {
					path[j] = alphabet[r.Intn(3)]
				}
			}
			switch r.Intn(4) {
			case 0:
				path = path[:r.Intn(len(path))]
			case 1:
				path = append(path, alphabet[r.Intn(3)])
			case 2:
				path[r.Intn(len(path))] = "wide-foreign"
			}
			if got, want := a.MatchesPath(path), isExpansion(path); got != want {
				t.Fatalf("MatchesPath(%s, %v) = %v, want %v", a, path, got, want)
			} else if got {
				verdicts.paths[1]++
			} else {
				verdicts.paths[0]++
			}

			s := wideSub(r, expansion(1+r.Intn(3)), alphabet)
			got := a.Overlaps(s)
			if want := OverlapsSimRec(a, s); got != want {
				t.Fatalf("Overlaps(%s, %s) = %v, OverlapsSimRec says %v", a, s, got, want)
			}
			if s.IsSimple() && !s.Relative {
				if want := AbsExprAndSimRecAdv(symtab.InternPath(a1), symtab.InternPath(a2), symtab.InternPath(a3), s); got != want {
					t.Fatalf("Overlaps(%s, %s) = %v, AbsExprAndSimRecAdv says %v", a, s, got, want)
				}
			}
			// s.Len() repetitions suffice (see OverlapsSimRec).
			want := false
			a.Expansions(a.MinLen()+s.Len()*len(a2), func(w []symtab.Sym) bool {
				want = MatchesNonRecursive(w, s)
				return !want
			})
			if got != want {
				t.Fatalf("Overlaps(%s, %s) = %v, enumeration says %v", a, s, got, want)
			}
			if got {
				verdicts.overlaps[1]++
			} else {
				verdicts.overlaps[0]++
			}
		}
	}
	t.Logf("MatchesPath false/true %v, Overlaps false/true %v", verdicts.paths, verdicts.overlaps)
	if min(verdicts.paths[0], verdicts.paths[1], verdicts.overlaps[0], verdicts.overlaps[1]) < 100 {
		t.Fatal("each check must see both verdicts at least 100 times")
	}
}

// wideSub draws a subscription of up to 40 steps from a window of the word
// w: absolute or relative, some steps renamed, some dropped behind a
// descendant step, and sometimes running past the end of w.
func wideSub(r *rand.Rand, w []string, alphabet []string) *xpath.XPE {
	relative := r.Intn(3) == 0
	from := 0
	if relative {
		from = r.Intn(len(w))
	}
	n := 1 + r.Intn(min(len(w)-from+2, 40))
	var steps []xpath.Step
	descendant := false
	for i := from; i < from+n; i++ {
		if r.Intn(8) == 0 {
			descendant = true // drop this step behind a "//"
			continue
		}
		name := alphabet[r.Intn(len(alphabet))]
		if i < len(w) && r.Intn(10) != 0 {
			name = w[i]
		}
		axis := xpath.Child
		if descendant && !(relative && len(steps) == 0) {
			axis = xpath.Descendant
		}
		descendant = false
		steps = append(steps, xpath.Step{Axis: axis, Name: name})
	}
	if len(steps) == 0 {
		steps = append(steps, xpath.Step{Axis: xpath.Child, Name: w[from]})
	}
	return xpath.New(relative, steps...)
}
