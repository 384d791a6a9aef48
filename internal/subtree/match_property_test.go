package subtree_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// TestMatchPathPruningEquivalentToFlat is the randomized soundness test for
// the covering-pruned publication matching claim (DESIGN.md §2): on the same
// stored subscription set, oracle.Walk over the covering tree must report
// exactly the subscriptions it reports over a flat tree (a full scan), for
// every publication path. Workload per trial: 1,000 random NITF XPEs, 500 root-to-leaf paths
// from random NITF documents.
func TestMatchPathPruningEquivalentToFlat(t *testing.T) {
	const (
		trials   = 3
		numXPEs  = 1000
		numPaths = 500
	)
	d := dtddata.NITF()
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			seed := int64(1000 + trial)
			g := &gen.XPathGenerator{
				DTD:        d,
				Wildcard:   0.25,
				Descendant: 0.15,
				MaxLen:     10,
				MinLen:     1,
				Relative:   0.2,
				Rand:       rand.New(rand.NewSource(seed)),
			}
			covering := subtree.New()
			flat := subtree.New()
			stored := 0
			for stored < numXPEs {
				x := g.Generate()
				if covering.Lookup(x) != nil {
					continue // duplicates collapse to one node in both modes
				}
				covering.Insert(x)
				flat.FlatInsert(x)
				stored++
			}
			if covering.Size() != flat.Size() {
				t.Fatalf("tree sizes diverge: covering %d, flat %d", covering.Size(), flat.Size())
			}

			dg := gen.NewDocGenerator(d, seed+1)
			dg.AvgRepeat = 1.5
			checked := 0
			for checked < numPaths {
				doc := dg.Generate()
				for _, path := range doc.Paths() {
					if checked == numPaths {
						break
					}
					checked++
					got := matchedKeys(covering, selects(path))
					want := matchedKeys(flat, selects(path))
					if !equalKeys(got, want) {
						t.Fatalf("path /%v: pruned traversal matched %d XPEs, flat scan %d\npruned: %v\nflat:   %v",
							path, len(got), len(want), diff(got, want), diff(want, got))
					}
					// The boolean fast path must agree as well.
					if oracle.Any(covering, selects(path)) != (len(want) > 0) {
						t.Fatalf("path /%v: Any = %v but %d matches stored",
							path, oracle.Any(covering, selects(path)), len(want))
					}
				}
			}
		})
	}
}

// matchedKeys collects the canonical keys of all subscriptions oracle.Walk
// reports over the tree, sorted.
func matchedKeys(tree *subtree.Tree, match func(*xpath.XPE) bool) []string {
	var keys []string
	oracle.Walk(tree, match, func(n *subtree.Node) { keys = append(keys, n.XPE.Key()) })
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
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

// diff returns the elements of a missing from b.
func diff(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, k := range b {
		in[k] = true
	}
	var out []string
	for _, k := range a {
		if !in[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestMatchPathAttrsPruningEquivalentToFlat repeats the cross-validation for
// attribute predicates evaluated against random per-element attributes, since
// predicate-aware covering is the more delicate pruning order.
func TestMatchPathAttrsPruningEquivalentToFlat(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	covering := subtree.New()
	flat := subtree.New()
	attrsOf := []string{"lang", "type", "v"}
	vals := []string{"a", "b", "c"}
	names := []string{"x", "y", "z", "w"}
	randExpr := func() *xpath.XPE {
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
		return xpath.New(r.Float64() < 0.3, steps...)
	}
	for stored := 0; stored < 800; {
		x := randExpr()
		if covering.Lookup(x) != nil {
			continue
		}
		covering.Insert(x)
		flat.FlatInsert(x)
		stored++
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(6)
		path := make([]string, n)
		attrs := make([]map[string]string, n)
		for i := range path {
			path[i] = names[r.Intn(len(names))]
			if r.Float64() < 0.6 {
				attrs[i] = map[string]string{attrsOf[r.Intn(len(attrsOf))]: vals[r.Intn(len(vals))]}
			}
		}
		match := func(x *xpath.XPE) bool { return oracle.Selects(x, path, attrs, true) }
		got, want := matchedKeys(covering, match), matchedKeys(flat, match)
		if !equalKeys(got, want) {
			t.Fatalf("path %v attrs %v: pruned %d vs flat %d matches\nmissing: %v\nextra: %v",
				path, attrs, len(got), len(want), diff(want, got), diff(got, want))
		}
	}
}
