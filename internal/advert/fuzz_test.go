package advert

import (
	"math/rand"
	"testing"

	"repro/internal/symtab"
)

// FuzzOverlapsAgreesWithPaper holds the automaton engine, at every width,
// to the paper's algorithms. From the fuzzed seed it draws an
// advertisement — non-recursive, or simple-recursive a1(a2)+a3, of more
// than 64 states when wide is set — with a subscription and a concrete
// path. Overlaps, and the automaton matcher behind it, must agree with the
// non-recursive algorithms run over the enumerated expansions; MatchesPath
// must agree with membership in the expansion set.
func FuzzOverlapsAgreesWithPaper(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	alphabet := []string{"a", "b", "c", "*"}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) {
		r := rand.New(rand.NewSource(seed))
		names := func(n int) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = alphabet[r.Intn(len(alphabet))]
			}
			return out
		}
		span := 6
		if wide {
			span = 25
		}
		a1, a2, a3 := names(r.Intn(span)), names(r.Intn(span)), names(r.Intn(span))
		if wide {
			// The group crosses the first word boundary, so its loop-back
			// leads from the second word into the first.
			a2 = append(a2, names(max(1, 64-len(a1)-len(a2)))...)
		} else if len(a1)+len(a2)+len(a3) == 0 {
			a3 = names(1)
		}
		var items []Item
		for _, n := range a1 {
			items = append(items, Sym(n))
		}
		if len(a2) > 0 {
			group := make([]Item, len(a2))
			for i, n := range a2 {
				group[i] = Sym(n)
			}
			items = append(items, Rep(group...))
		}
		for _, n := range a3 {
			items = append(items, Sym(n))
		}
		a := NewAdvertisement(items...)
		if n := a.nfa(); wide && n.words < 2 {
			t.Fatalf("%s: %d states in one word, want a wide automaton", a, n.states())
		}
		expansion := func(reps int) []string {
			w := append([]string(nil), a1...)
			for i := 0; i < reps; i++ {
				w = append(w, a2...)
			}
			return append(w, a3...)
		}

		// A state a skip reaches late, across the group's loop-back, is
		// rare, so each advertisement is checked against several paths
		// and subscriptions.
		for k := 0; k < 16; k++ {
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
				path[r.Intn(len(path))] = "fuzz-foreign"
			}
			member := false
			a.Expansions(len(path), func(w []symtab.Sym) bool {
				if len(w) != len(path) {
					return true
				}
				for i := range w {
					if w[i] != symtab.Wildcard && symtab.NameOf(w[i]) != path[i] {
						return true
					}
				}
				member = true
				return false
			})
			if got := a.MatchesPath(path); got != member {
				t.Fatalf("MatchesPath(%s, %v) = %v, expansion set says %v", a, path, got, member)
			}

			// s.Len() repetitions suffice (see OverlapsSimRec).
			s := wideSub(r, expansion(1+r.Intn(3)), alphabet)
			want := false
			a.Expansions(a.MinLen()+s.Len()*len(a2), func(w []symtab.Sym) bool {
				want = MatchesNonRecursive(w, s)
				return !want
			})
			if got := a.Overlaps(s); got != want {
				t.Fatalf("Overlaps(%s, %s) = %v, enumeration says %v", a, s, got, want)
			}
			if got := a.overlapsNFA(s); got != want {
				t.Fatalf("automaton overlap(%s, %s) = %v, enumeration says %v", a, s, got, want)
			}
		}
	})
}
