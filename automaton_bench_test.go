package xmlrouter

import (
	"fmt"
	"testing"

	"repro/internal/dtddata"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pmatch"
	"repro/internal/subtree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// BenchmarkAutomatonMatch isolates the effect of the shared path-matching
// automaton (internal/pmatch, DESIGN.md §5c) at the matcher layer, without a
// broker. For each subscription-table size it matches the same publication
// stream against the same covering set held two ways: "treewalk" walks a
// subtree.Tree with covering-based subtree pruning (oracle.Walk) — the
// paper's router and experiment.RunTable1's — and "nfa" runs one automaton
// compiled from the same expressions. Both report every matching
// subscription, and the setup checks that they report the same number. The
// gap widens with the table size because the tree walk grows with the
// number of stored subscriptions while the NFA run grows only with
// shared-prefix fan-out. EXPERIMENTS.md and BENCH_pmatch.json record
// measured numbers.
func BenchmarkAutomatonMatch(b *testing.B) {
	dg := gen.NewDocGenerator(dtddata.NITF(), 6)
	dg.AvgRepeat = 1.5
	var pubs []xmldoc.Publication
	for i := 0; i < 200; i++ {
		doc := dg.Generate()
		pubs = append(pubs, xmldoc.Extract(doc, uint64(i))...)
	}

	for _, n := range []int{100, 1000, 10000} {
		// Setup sits inside the size's benchmark, so a -bench filter that
		// skips the size skips building its table too.
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			set, err := experiment.BuildCoveringSet(dtddata.NITF(), n, 0.9, 4)
			if err != nil {
				b.Fatal(err)
			}
			tree := subtree.New()
			nfa := pmatch.NewBuilder()
			for _, x := range set.XPEs {
				tree.Insert(x)
				nfa.Add(x, nil)
			}
			auto := nfa.Build()
			matchers := []struct {
				name  string
				match func(p *xmldoc.Publication, visit func())
			}{
				{"treewalk", func(p *xmldoc.Publication, visit func()) {
					oracle.Walk(tree, func(x *xpath.XPE) bool { return x.MatchesSymPathAttrs(p.SymPath, p.Attrs) },
						func(*subtree.Node) { visit() })
				}},
				{"nfa", func(p *xmldoc.Publication, visit func()) {
					auto.Match(p.SymPath, p.Attrs, func(any) { visit() })
				}},
			}
			var totals [2]int
			for i, m := range matchers {
				for j := range pubs {
					m.match(&pubs[j], func() { totals[i]++ })
				}
			}
			if totals[0] != totals[1] {
				b.Fatalf("tree walk reports %d matches, automaton %d", totals[0], totals[1])
			}
			for _, m := range matchers {
				b.Run(m.name, func(b *testing.B) {
					matched := 0
					visit := func() { matched++ }
					for i := 0; i < b.N; i++ {
						m.match(&pubs[i%len(pubs)], visit)
					}
				})
			}
		})
	}
}
