package experiment

import (
	"time"

	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/oracle"
	"repro/internal/pmatch"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Table1Options sizes the publication-routing-time experiment (paper:
// 100,000 XPEs and 23,098 publications extracted from 500 documents;
// defaults here are 6,000 XPEs and 500 documents).
type Table1Options struct {
	N               int     // XPEs per set (default 20000)
	Docs            int     // documents to extract publications from (default 500)
	RateA, RateB    float64 // covering rates of the two sets
	ImperfectDegree float64 // tolerance of the imperfect-merging row (default 0.1)
	Seed            int64
}

func (o *Table1Options) defaults() {
	if o.N <= 0 {
		o.N = 6000
	}
	if o.Docs <= 0 {
		o.Docs = 500
	}
	if o.RateA == 0 {
		o.RateA = 0.9
	}
	if o.RateB == 0 {
		o.RateB = 0.5
	}
	if o.ImperfectDegree == 0 {
		o.ImperfectDegree = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 4
	}
}

// Table1Cell is one method's routing on one set: the table it stores, and
// the mean per-publication routing time (ms) and total matches of two
// matchers over that table — the paper's covering-pruned tree walk, and one
// shared automaton (internal/pmatch, the broker's matcher) compiled from the
// same entries.
type Table1Cell struct {
	Entries                 int
	Walk, NFA               float64
	WalkMatches, NFAMatches int
}

// Table1Set holds the four methods' cells for one subscription set.
type Table1Set struct {
	NoCovering, Covering, PerfectMerging, ImperfectMerging Table1Cell
}

// Table1Result holds the paper's four methods on Sets A and B.
type Table1Result struct {
	Publications int
	SetA, SetB   Table1Set
	RateA, RateB float64
}

// RunTable1 reproduces Table 1: the time to route publications against a
// large subscription table, under no covering (flat table, full scan),
// covering (compacted table, pruned tree matching), and covering plus
// perfect/imperfect merging. Each table is also routed by one automaton
// compiled from its entries, so the covering gain can be read on the
// matcher the broker runs.
func RunTable1(opts Table1Options) (*Table1Result, error) {
	opts.defaults()
	setA, err := BuildCoveringSet(dtddata.NITF(), opts.N, opts.RateA, opts.Seed)
	if err != nil {
		return nil, err
	}
	setB, err := BuildCoveringSet(dtddata.NITF(), opts.N, opts.RateB, opts.Seed+1)
	if err != nil {
		return nil, err
	}

	// Publications extracted from generated NITF documents.
	dg := gen.NewDocGenerator(dtddata.NITF(), opts.Seed+2)
	dg.AvgRepeat = 1.5
	var pubs []xmldoc.Publication
	for i := 0; i < opts.Docs; i++ {
		doc := dg.Generate()
		pubs = append(pubs, xmldoc.Extract(doc, uint64(i))...)
	}

	est := merge.NewDegreeEstimator(GenerateAdvertisements(dtddata.NITF()), 10, 4000)
	res := &Table1Result{Publications: len(pubs), RateA: setA.MeasuredRate, RateB: setB.MeasuredRate}

	measure := func(set *CoveringSet) Table1Set {
		// No covering: flat table, every publication scanned against every
		// XPE.
		flat := subtree.New()
		for _, x := range set.XPEs {
			flat.FlatInsert(x)
		}
		// Covering: the downstream table holds only uncovered XPEs and
		// matching prunes subtrees; the merging methods merge it further.
		covering := func(merging *merge.Options) *subtree.Tree {
			tree := subtree.New()
			for _, x := range set.XPEs {
				insertCovering(tree, x)
			}
			if merging != nil {
				merge.PassToFixpoint(tree, *merging)
			}
			return tree
		}
		return Table1Set{
			NoCovering:       routeTable(flat, pubs),
			Covering:         routeTable(covering(nil), pubs),
			PerfectMerging:   routeTable(covering(&merge.Options{MaxDegree: 0, Estimator: est}), pubs),
			ImperfectMerging: routeTable(covering(&merge.Options{MaxDegree: opts.ImperfectDegree, Estimator: est}), pubs),
		}
	}
	res.SetA = measure(setA)
	res.SetB = measure(setB)
	return res, nil
}

// routeTable routes every publication's path through the table twice, by
// the covering-pruned tree walk and by an automaton compiled from the
// table's entries. Predicates are not evaluated: the sets carry none.
func routeTable(tree *subtree.Tree, pubs []xmldoc.Publication) Table1Cell {
	b := pmatch.NewBuilder()
	tree.Walk(func(n *subtree.Node) { b.Add(n.XPE, nil) })
	auto := b.Build()
	c := Table1Cell{Entries: tree.Size()}
	c.Walk, c.WalkMatches = routeAll(pubs, func(path []symtab.Sym, visit func()) {
		oracle.Walk(tree, func(x *xpath.XPE) bool { return x.MatchesSymPath(path) },
			func(*subtree.Node) { visit() })
	})
	c.NFA, c.NFAMatches = routeAll(pubs, func(path []symtab.Sym, visit func()) {
		auto.Match(path, nil, func(any) { visit() })
	})
	return c
}

// routeAll matches every publication with match and returns the mean
// per-publication routing time in milliseconds and the matches reported.
func routeAll(pubs []xmldoc.Publication, match func(path []symtab.Sym, visit func())) (float64, int) {
	if len(pubs) == 0 {
		return 0, 0
	}
	matches := 0
	visit := func() { matches++ }
	start := time.Now()
	for i := range pubs {
		match(pubs[i].SymPath, visit)
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(len(pubs)) / float64(time.Millisecond), matches
}

// Table renders the result in the shape of Table 1, with the automaton's
// time beside each tree-walk time.
func (r *Table1Result) Table() *Table {
	t := &Table{
		Caption: "Table 1 — Publication routing performance (per publication)",
		Columns: []string{"Method", "Set A (ms)", "Set A NFA (us)", "Set B (ms)", "Set B NFA (us)", "TableA", "TableB"},
		Notes: []string{
			fint(r.Publications) + " publications routed",
			"Set A covering rate " + fpct(r.RateA) + ", Set B " + fpct(r.RateB),
			"Set A/B (ms): covering-pruned tree walk; NFA (us): one shared automaton over the same table",
		},
	}
	for _, row := range []struct {
		name string
		a, b Table1Cell
	}{
		{"No Covering", r.SetA.NoCovering, r.SetB.NoCovering},
		{"Covering", r.SetA.Covering, r.SetB.Covering},
		{"Perfect Merging", r.SetA.PerfectMerging, r.SetB.PerfectMerging},
		{"Imperfect Merging", r.SetA.ImperfectMerging, r.SetB.ImperfectMerging},
	} {
		t.AddRow(row.name, fms(row.a.Walk), fus(row.a.NFA), fms(row.b.Walk), fus(row.b.NFA), fint(row.a.Entries), fint(row.b.Entries))
	}
	return t
}
