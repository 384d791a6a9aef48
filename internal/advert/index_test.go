package advert

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// nitfAdverts returns the NITF advertisement set (3,692 advertisements,
// simple-, series- and embedded-recursive ones among them), built once.
var nitfAdverts = sync.OnceValue(func() []*Advertisement {
	advs, err := Generate(dtddata.NITF())
	if err != nil {
		panic(err)
	}
	return advs
})

// nitfXPEs draws n XPEs over the NITF DTD with wildcards, descendant
// operators and relative expressions mixed in.
func nitfXPEs(n int, seed int64) []*xpath.XPE {
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.2, 0.2, seed)
	g.Relative = 0.3
	out := make([]*xpath.XPE, n)
	for i := range out {
		out[i] = g.Generate()
	}
	return out
}

// literal copies an advertisement the way the wire decoder builds one: from
// a fresh token string, its automaton not yet compiled.
func literal(a *Advertisement) *Advertisement {
	b, err := FromTokens(slices.Clone(a.Tokens()))
	if err != nil {
		panic(err)
	}
	return b
}

// randomMixedAdv draws an advertisement for the index's differential test:
// an NITF advertisement (half of them as wire-style literals), an NITF
// advertisement with a random item replaced by "*", or a small random one
// over {a, b, c, *} with nested groups.
func randomMixedAdv(r *rand.Rand) *Advertisement {
	nitf := nitfAdverts()
	switch r.Intn(4) {
	case 0:
		return nitf[r.Intn(len(nitf))]
	case 1:
		return literal(nitf[r.Intn(len(nitf))])
	case 2:
		toks := slices.Clone(nitf[r.Intn(len(nitf))].Tokens())
		for i := 0; i < 1+r.Intn(2); i++ {
			if k := r.Intn(len(toks)); isName(toks[k]) {
				toks[k] = symtab.Wildcard
			}
		}
		return build(toks)
	default:
		return randomAdvFrom(r)
	}
}

// randomMixedXPE draws an XPE over NITF names or the small alphabet, in
// absolute, relative and descendant forms. Half of them are cut from an
// expansion of one member, so that member alone may decide the answer.
func randomMixedXPE(r *rand.Rand, nitf []*xpath.XPE, members []*Advertisement) *xpath.XPE {
	if len(members) > 0 && r.Intn(2) == 0 {
		if x := cutFromExpansion(r, members[r.Intn(len(members))]); x != nil {
			return x
		}
	}
	if r.Intn(2) == 0 {
		return nitf[r.Intn(len(nitf))]
	}
	x := &xpath.XPE{Relative: r.Intn(2) == 0}
	for i := 0; i < 1+r.Intn(4); i++ {
		axis := xpath.Child
		if (i > 0 || !x.Relative) && r.Intn(4) == 0 {
			axis = xpath.Descendant
		}
		x.Steps = append(x.Steps, xpath.Step{Axis: axis, Name: smallAlphabet[r.Intn(len(smallAlphabet))]})
	}
	return x
}

// smallAlphabet mixes names of the random advertisements with NITF names.
var smallAlphabet = []string{"a", "b", "c", "head", "p", xpath.Wildcard}

// cutFromExpansion builds an XPE that a's expansion word satisfies, from a
// random suffix of the word: some names become "*", some steps skip an
// element behind a "//", and every "*" item of the word becomes a concrete
// name, which only the index's wildcard posting lets through. nil when the
// drawn length bound admits no expansion.
func cutFromExpansion(r *rand.Rand, a *Advertisement) *xpath.XPE {
	var word []symtab.Sym
	a.Expansions(a.MinLen()+r.Intn(3), func(w []symtab.Sym) bool {
		word = w
		return r.Intn(3) > 0
	})
	if word == nil {
		return nil
	}
	from := r.Intn(len(word))
	x := &xpath.XPE{Relative: from > 0 || r.Intn(4) == 0}
	for i := from; i < len(word); i++ {
		axis := xpath.Child
		if i > from && r.Intn(4) == 0 {
			axis = xpath.Descendant
			if i+1 < len(word) && r.Intn(2) == 0 {
				i++
			}
		}
		name := symtab.NameOf(word[i])
		if name == xpath.Wildcard {
			name = smallAlphabet[r.Intn(len(smallAlphabet)-1)]
		} else if r.Intn(5) == 0 {
			name = xpath.Wildcard
		}
		x.Steps = append(x.Steps, xpath.Step{Axis: axis, Name: name})
	}
	return x
}

// TestIndexOverlapsEqualsScan is the index's differential test: under random
// Add/Remove sequences, Index.Overlaps(x) answers exactly "some member
// overlaps x" as the linear scan over the members decides it.
func TestIndexOverlapsEqualsScan(t *testing.T) {
	pool := nitfXPEs(300, 5)
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ix Index
		var slots []int
		var members []*Advertisement // members[i] sits in slots[i]
		for step := 0; step < 200; step++ {
			// A small index, so that single members decide answers.
			if len(members) > 0 && len(members) >= 1+r.Intn(8) {
				i := r.Intn(len(members))
				ix.Remove(slots[i])
				slots = append(slots[:i], slots[i+1:]...)
				members = append(members[:i], members[i+1:]...)
			} else {
				a := randomMixedAdv(r)
				slot := ix.Add(a)
				for _, s := range slots {
					if s == slot {
						t.Fatalf("seed %d: Add reused live slot %d", seed, slot)
					}
				}
				slots = append(slots, slot)
				members = append(members, a)
			}
			if ix.Len() != len(members) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, ix.Len(), len(members))
			}
			for i, slot := range slots {
				if ix.At(slot) != members[i] {
					t.Fatalf("seed %d step %d: At(%d) is not its member", seed, step, slot)
				}
			}
			for i := 0; i < 8; i++ {
				x := randomMixedXPE(r, pool, members)
				want := false
				for _, a := range members {
					if a.Overlaps(x) {
						want = true
						break
					}
				}
				if got := ix.Overlaps(x); got != want {
					t.Fatalf("seed %d step %d: Index.Overlaps(%s) = %v, scan over %d members = %v",
						seed, step, x, got, len(members), want)
				}
			}
		}
	}
}

// TestIndexPrunesNITF pins the filter's point on the real table: against all
// NITF advertisements in one index, a query runs the exact check on a small
// fraction of them, and a name no advertisement uses prunes everything.
func TestIndexPrunesNITF(t *testing.T) {
	var ix Index
	for _, a := range nitfAdverts() {
		ix.Add(a)
	}
	if ix.Overlaps(xpath.MustParse("/nitf//no-such-element")) {
		t.Error("an XPE naming an unknown element overlaps an NITF advertisement")
	}
	if ix.Checks() != 0 {
		t.Errorf("unknown element: %d exact checks, want 0", ix.Checks())
	}
	xs := nitfXPEs(500, 9)
	for _, x := range xs {
		ix.Overlaps(x)
	}
	if mean := float64(ix.Checks()) / float64(len(xs)); mean > 0.05*float64(ix.Len()) {
		t.Errorf("%.1f exact checks per XPE over %d advertisements: the symbol filter does not prune", mean, ix.Len())
	}
}

// TestOverlapsAllocFree pins the exact overlap check at zero allocations once
// warm: NITF advertisements (recursive ones and wire-style literals
// included) against absolute, relative and descendant XPEs, and the index
// query over all of them.
func TestOverlapsAllocFree(t *testing.T) {
	advs := nitfAdverts()
	var all []*Advertisement
	var ix Index
	for i, a := range advs {
		if i%2 == 1 {
			a = literal(a)
		}
		all = append(all, a)
		ix.Add(a)
	}
	xs := []*xpath.XPE{
		xpath.MustParse("/nitf/head/title"),
		xpath.MustParse("/nitf/*/docdata/doc-id"),
		xpath.MustParse("head/title"),
		xpath.MustParse("*/p"),
		xpath.MustParse("/nitf//body.content//p"),
		xpath.MustParse("//block/*//em"),
		xpath.MustParse("body//table/tr"),
	}
	xs = append(xs, nitfXPEs(20, 3)...)
	scan := func() {
		for _, x := range xs {
			for _, a := range all {
				a.Overlaps(x)
			}
		}
	}
	query := func() {
		for _, x := range xs {
			ix.Overlaps(x)
		}
	}
	scan() // warm-up: symbol caches, lazily compiled automata
	query()
	if got := testing.AllocsPerRun(3, scan); got != 0 {
		t.Errorf("Advertisement.Overlaps: %.1f allocations per pass, want 0", got)
	}
	if got := testing.AllocsPerRun(3, query); got != 0 {
		t.Errorf("Index.Overlaps: %.1f allocations per pass, want 0", got)
	}
}

// TestIndexSlotReuse: removed slots come back, a removed member no longer
// answers, and At reports the member per slot.
func TestIndexSlotReuse(t *testing.T) {
	var ix Index
	a := MustParse("/a/b")
	b := MustParse("/c(/d)+")
	sa, sb := ix.Add(a), ix.Add(b)
	if ix.At(sa) != a || ix.At(sb) != b || ix.Len() != 2 {
		t.Fatalf("At/Len after two adds: %v %v %d", ix.At(sa), ix.At(sb), ix.Len())
	}
	x := xpath.MustParse("/a/b")
	if !ix.Overlaps(x) {
		t.Fatal("/a/b must overlap its own advertisement")
	}
	ix.Remove(sa)
	if ix.Overlaps(x) || ix.At(sa) != nil || ix.Len() != 1 {
		t.Fatal("removed member still answers")
	}
	if got := ix.Add(MustParse("/a/*")); got != sa {
		t.Errorf("Add after Remove took slot %d, want the freed slot %d", got, sa)
	}
	if !ix.Overlaps(x) {
		t.Error("/a/* must overlap /a/b through the wildcard posting")
	}
	if !ix.Overlaps(xpath.MustParse("c//d/d")) {
		t.Error("the recursive member must overlap c//d/d")
	}
}
