package pmatch

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// The property test generates random subscription workloads (wildcards,
// descendant steps, relative expressions, attribute predicates) and random
// annotated publication paths, and checks that the shared automaton's
// accept set is IDENTICAL to evaluating every expression independently with
// the reference (oracle.Selects), predicates ignored and evaluated. This is
// the equivalence contract the broker's publish path relies on.

var quickAlphabet = []string{"a", "b", "c", "d", "e"}

func randomXPE(r *rand.Rand) *xpath.XPE {
	n := 1 + r.Intn(4)
	steps := make([]xpath.Step, n)
	for i := range steps {
		axis := xpath.Child
		if i > 0 && r.Intn(3) == 0 {
			axis = xpath.Descendant
		}
		if i == 0 && r.Intn(5) == 0 {
			axis = xpath.Descendant
		}
		name := quickAlphabet[r.Intn(len(quickAlphabet))]
		if r.Intn(5) == 0 {
			name = xpath.Wildcard
		}
		var preds string
		if r.Intn(6) == 0 {
			preds = xpath.EncodePreds([]xpath.Pred{{Attr: "k", Value: quickAlphabet[r.Intn(2)]}})
		}
		steps[i] = xpath.Step{Axis: axis, Name: name, Preds: preds}
	}
	relative := r.Intn(3) == 0
	if relative {
		steps[0].Axis = xpath.Child // Parse's invariant; New allows either
	}
	return xpath.New(relative, steps...)
}

func randomPath(r *rand.Rand) ([]string, []map[string]string) {
	n := r.Intn(7)
	path := make([]string, n)
	attrs := make([]map[string]string, n)
	for i := range path {
		path[i] = quickAlphabet[r.Intn(len(quickAlphabet))]
		switch r.Intn(3) {
		case 0:
			attrs[i] = map[string]string{"k": quickAlphabet[r.Intn(2)]}
		case 1:
			attrs[i] = map[string]string{"other": "x"}
		}
	}
	return path, attrs
}

func TestQuickAutomatonEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		nx := 1 + r.Intn(40)
		b := NewBuilder()
		xs := make([]*xpath.XPE, nx)
		for i := range xs {
			xs[i] = randomXPE(r)
			b.Add(xs[i], i)
		}
		auto := b.Build()
		for trial := 0; trial < 40; trial++ {
			path, attrs := randomPath(r)
			sp := symtab.InternPath(path)

			var gotS []int
			auto.MatchStructural(sp, func(d any) { gotS = append(gotS, d.(int)) })
			sort.Ints(gotS)
			wantS := oracle.Flat(xs, path, nil, false)
			if !eqInts(gotS, wantS) {
				t.Fatalf("round %d: structural mismatch on %v\nautomaton=%v\nflat=%v\nexprs=%s",
					round, path, gotS, wantS, dumpExprs(xs))
			}

			var gotA []int
			auto.Match(sp, attrs, func(d any) { gotA = append(gotA, d.(int)) })
			sort.Ints(gotA)
			wantA := oracle.Flat(xs, path, attrs, true)
			if !eqInts(gotA, wantA) {
				t.Fatalf("round %d: attr mismatch on %v attrs=%v\nautomaton=%v\nflat=%v\nexprs=%s",
					round, path, attrs, gotA, wantA, dumpExprs(xs))
			}
		}
	}
}

// TestQuickScratchReuse exercises the pooled scratch across many sequential
// runs on one automaton (epoch stamping must never leak accepts or frontier
// state between runs).
func TestQuickScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := NewBuilder()
	xs := make([]*xpath.XPE, 25)
	for i := range xs {
		xs[i] = randomXPE(r)
		b.Add(xs[i], i)
	}
	auto := b.Build()
	for trial := 0; trial < 3000; trial++ {
		path, _ := randomPath(r)
		sp := symtab.InternPath(path)
		var got []int
		auto.MatchStructural(sp, func(d any) { got = append(got, d.(int)) })
		sort.Ints(got)
		if want := oracle.Flat(xs, path, nil, false); !eqInts(got, want) {
			t.Fatalf("trial %d: path %v: automaton=%v flat=%v", trial, path, got, want)
		}
	}
}

func eqInts(a, b []int) bool {
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

func dumpExprs(xs []*xpath.XPE) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, " ; ")
}
