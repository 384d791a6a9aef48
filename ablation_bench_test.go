// Ablation benchmarks for the design choices DESIGN.md calls out: each
// compares the production algorithm with the baseline it replaced (or the
// paper's unoptimised variant), on the same workload.
package xmlrouter

import (
	"math/rand"
	"testing"

	"repro/internal/advert"
	"repro/internal/cover"
	"repro/internal/dtddata"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// relativeWorkload builds advertisements and relative subscriptions for the
// matcher ablations.
func relativeWorkload(tb testing.TB) ([][]symtab.Sym, []*xpath.XPE) {
	tb.Helper()
	advs, err := advert.Generate(dtddata.PSD())
	if err != nil {
		tb.Fatal(err)
	}
	flat := make([][]symtab.Sym, 0, len(advs))
	for _, a := range advs {
		flat = append(flat, a.Tokens())
	}
	g := gen.NewXPathGenerator(dtddata.PSD(), 0.3, 0, 1)
	g.Relative = 1 // relative expressions only
	g.MinLen = 2
	subs := make([]*xpath.XPE, 400)
	for i := range subs {
		subs[i] = g.Generate()
	}
	return flat, subs
}

// BenchmarkAblationRelMatchAnchored vs ...Naive: the anchored scan replacing
// the paper's (unsound-under-wildcards) KMP proposal, against the try-every-
// offset baseline.
func BenchmarkAblationRelMatchAnchored(b *testing.B) {
	flat, subs := relativeWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subs {
			for _, a := range flat {
				advert.RelExprAndAdv(a, s)
			}
		}
	}
}

func BenchmarkAblationRelMatchNaive(b *testing.B) {
	flat, subs := relativeWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subs {
			for _, a := range flat {
				advert.RelExprAndAdvNaive(a, s)
			}
		}
	}
}

// BenchmarkAblationRecursiveNFA vs ...Enumeration: the automaton matcher for
// recursive advertisements against the paper's expansion-enumeration
// strategy (Figure 3 generalised).
func recursiveWorkload(tb testing.TB) ([]*advert.Advertisement, []*xpath.XPE) {
	tb.Helper()
	all, err := advert.Generate(dtddata.NITF())
	if err != nil {
		tb.Fatal(err)
	}
	var rec []*advert.Advertisement
	for _, a := range all {
		if a.Classify() == advert.SimpleRecursive {
			rec = append(rec, a)
			if len(rec) == 200 {
				break
			}
		}
	}
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.2, 0.1, 2)
	subs := make([]*xpath.XPE, 200)
	for i := range subs {
		subs[i] = g.Generate()
	}
	return rec, subs
}

func BenchmarkAblationRecursiveNFA(b *testing.B) {
	rec, subs := recursiveWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subs {
			for _, a := range rec {
				a.Overlaps(s)
			}
		}
	}
}

func BenchmarkAblationRecursiveEnumeration(b *testing.B) {
	rec, subs := recursiveWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range subs {
			for _, a := range rec {
				advert.OverlapsSimRec(a, s)
			}
		}
	}
}

// BenchmarkAblationCoveringGreedy vs ...Exact: the paper's greedy DesCov
// against the exact automaton-containment procedure, on descendant-bearing
// pairs.
func coveringPairs(tb testing.TB) [][2]*xpath.XPE {
	tb.Helper()
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.2, 0.3, 3)
	g.MinLen = 3
	pairs := make([][2]*xpath.XPE, 500)
	for i := range pairs {
		pairs[i] = [2]*xpath.XPE{g.Generate(), g.Generate()}
	}
	return pairs
}

func BenchmarkAblationCoveringGreedy(b *testing.B) {
	pairs := coveringPairs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			cover.DesCov(p[0], p[1])
		}
	}
}

func BenchmarkAblationCoveringExact(b *testing.B) {
	pairs := coveringPairs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			cover.CoversExact(p[0], p[1])
		}
	}
}

// BenchmarkAblationMatchTree vs ...Flat: covering-pruned publication
// matching on a compacted subscription tree against the flat full scan —
// the data-structure half of Table 1's effect.
func matchWorkload(tb testing.TB) (*subtree.Tree, *subtree.Tree, []xmldoc.Publication) {
	tb.Helper()
	set, err := experiment.BuildCoveringSet(dtddata.NITF(), 3000, 0.9, 4)
	if err != nil {
		tb.Fatal(err)
	}
	flat := subtree.New()
	covered := subtree.New()
	for _, x := range set.XPEs {
		flat.FlatInsert(x)
		if !covered.IsCovered(x) {
			res := covered.Insert(x)
			for _, c := range res.NewlyCovered {
				covered.Remove(c)
			}
		}
	}
	dg := gen.NewDocGenerator(dtddata.NITF(), 5)
	var pubs []xmldoc.Publication
	for i := 0; i < 20; i++ {
		pubs = append(pubs, xmldoc.Extract(dg.Generate(), uint64(i))...)
	}
	return flat, covered, pubs
}

func BenchmarkAblationMatchFlat(b *testing.B) {
	flat, _, pubs := matchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pubs {
			path := pubs[j].SymPath
			oracle.Walk(flat, func(x *xpath.XPE) bool { return x.MatchesSymPath(path) }, func(*subtree.Node) {})
		}
	}
}

func BenchmarkAblationMatchTree(b *testing.B) {
	_, covered, pubs := matchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pubs {
			path := pubs[j].SymPath
			oracle.Walk(covered, func(x *xpath.XPE) bool { return x.MatchesSymPath(path) }, func(*subtree.Node) {})
		}
	}
}

// BenchmarkAblationCoversFastPath vs ...ExactOnly: the production covering
// dispatch (prefilter + pairwise/greedy + exact fallback) against always
// running the exact automaton.
func BenchmarkAblationCoversFastPath(b *testing.B) {
	pairs := mixedPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			cover.Covers(p[0], p[1])
		}
	}
}

func BenchmarkAblationCoversExactOnly(b *testing.B) {
	pairs := mixedPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			cover.CoversExact(p[0], p[1])
		}
	}
}

func mixedPairs() [][2]*xpath.XPE {
	r := rand.New(rand.NewSource(6))
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.25, 0.15, 6)
	g.Rand = r
	pairs := make([][2]*xpath.XPE, 500)
	for i := range pairs {
		pairs[i] = [2]*xpath.XPE{g.Generate(), g.Generate()}
	}
	return pairs
}
