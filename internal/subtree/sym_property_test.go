package subtree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// TestSymPathMatchingEquivalentToStrings is the cross-representation
// soundness test for symbol interning: on random subscription sets and
// random document paths, the evaluator over interned paths must report
// exactly the subscriptions the reference (oracle.Selects, over element
// names) reports — at the tree level (pruned walk) and at the
// single-expression level. Any divergence means interning or the evaluator
// changed matching semantics, which would silently misroute publications.
func TestSymPathMatchingEquivalentToStrings(t *testing.T) {
	const (
		trials   = 3
		numXPEs  = 600
		numPaths = 400
	)
	d := dtddata.NITF()
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			seed := int64(4000 + trial)
			g := &gen.XPathGenerator{
				DTD:        d,
				Wildcard:   0.25,
				Descendant: 0.15,
				MaxLen:     10,
				MinLen:     1,
				Relative:   0.2,
				Rand:       rand.New(rand.NewSource(seed)),
			}
			tree := subtree.New()
			var exprs []*xpath.XPE
			for len(exprs) < numXPEs {
				x := g.Generate()
				if tree.Lookup(x) != nil {
					continue
				}
				tree.Insert(x)
				exprs = append(exprs, x)
			}

			dg := gen.NewDocGenerator(d, seed+1)
			dg.AvgRepeat = 1.5
			checked := 0
			for checked < numPaths {
				doc := dg.Generate()
				paths := doc.Paths()
				symPaths := doc.SymPaths()
				if len(symPaths) != len(paths) {
					t.Fatalf("SymPaths returned %d paths, Paths %d", len(symPaths), len(paths))
				}
				for pi, path := range paths {
					if checked == numPaths {
						break
					}
					checked++
					syms := symPaths[pi]

					got := matchedKeys(tree, func(x *xpath.XPE) bool { return x.MatchesSymPath(syms) })
					want := matchedKeys(tree, selects(path))
					if !equalKeys(got, want) {
						t.Fatalf("path /%v: evaluator found %d, reference %d\nevaluator-only: %v\nreference-only: %v",
							path, len(got), len(want), diff(got, want), diff(want, got))
					}

					// Single-expression adapters must agree too (the tree
					// walk prunes, so it exercises different code paths).
					for _, x := range exprs[:20] {
						if x.MatchesSymPath(syms) != oracle.Selects(x, path, nil, false) {
							t.Fatalf("XPE %s path /%v: MatchesSymPath = %v, Selects = %v",
								x, path, x.MatchesSymPath(syms), oracle.Selects(x, path, nil, false))
						}
					}
				}
			}
		})
	}
}

// TestSymPathAttrsMatchingEquivalentToStrings repeats the cross-validation
// with attribute predicates evaluated against random per-element attributes.
func TestSymPathAttrsMatchingEquivalentToStrings(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	tree := subtree.New()
	attrsOf := []string{"lang", "type", "v"}
	vals := []string{"a", "b", "c"}
	names := []string{"x", "y", "z", "w"}
	var exprs []*xpath.XPE
	for len(exprs) < 600 {
		n := 1 + r.Intn(4)
		steps := make([]xpath.Step, n)
		for i := range steps {
			axis := xpath.Child
			if r.Float64() < 0.2 {
				axis = xpath.Descendant
			}
			name := names[r.Intn(len(names))]
			if r.Float64() < 0.2 {
				name = xpath.Wildcard
			}
			var preds []xpath.Pred
			if r.Float64() < 0.4 {
				preds = append(preds, xpath.Pred{Attr: attrsOf[r.Intn(len(attrsOf))], Value: vals[r.Intn(len(vals))]})
			}
			steps[i] = xpath.Step{Axis: axis, Name: name, Preds: xpath.EncodePreds(preds)}
		}
		x := xpath.New(r.Float64() < 0.3, steps...)
		if tree.Lookup(x) != nil {
			continue
		}
		tree.Insert(x)
		exprs = append(exprs, x)
	}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(6)
		path := make([]string, n)
		attrs := make([]map[string]string, n)
		for i := range path {
			path[i] = names[r.Intn(len(names))]
			if r.Float64() < 0.6 {
				attrs[i] = map[string]string{attrsOf[r.Intn(len(attrsOf))]: vals[r.Intn(len(vals))]}
			}
		}
		syms := symtab.InternPath(path)
		eval := func(x *xpath.XPE) bool { return x.MatchesSymPathAttrs(syms, attrs) }
		ref := func(x *xpath.XPE) bool { return oracle.Selects(x, path, attrs, true) }
		got, want := matchedKeys(tree, eval), matchedKeys(tree, ref)
		if !equalKeys(got, want) {
			t.Fatalf("path %v attrs %v: evaluator %d vs reference %d matches\nevaluator-only: %v\nreference-only: %v",
				path, attrs, len(got), len(want), diff(got, want), diff(want, got))
		}
		if oracle.Any(tree, eval) != (len(want) > 0) {
			t.Fatalf("path %v: Any = %v but %d matches stored", path, oracle.Any(tree, eval), len(want))
		}
		for _, x := range exprs[:20] {
			if eval(x) != ref(x) {
				t.Fatalf("XPE %s path %v attrs %v: evaluator = %v, reference = %v",
					x, path, attrs, eval(x), ref(x))
			}
		}
	}
}
