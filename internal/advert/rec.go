package advert

import (
	"slices"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// SplitSimple decomposes a simple-recursive advertisement a1(a2)+a3 into its
// three non-recursive parts, which share the advertisement's tokens and must
// not be modified. ok is false if the advertisement is not simple-recursive.
func (a *Advertisement) SplitSimple() (a1, a2, a3 []symtab.Sym, ok bool) {
	if a.Classify() != SimpleRecursive {
		return nil, nil, nil, false
	}
	open := slices.Index(a.toks, symtab.GroupOpen)
	end := groupEnd(a.toks, open)
	return a.toks[:open], a.toks[open+1 : end], a.toks[end+1:], true
}

// AbsExprAndSimRecAdv is the paper's Figure 3 algorithm: matching an
// absolute simple XPE against a simple-recursive advertisement a1(a2)+a3.
// It enumerates the number of repetitions of the recursive pattern that the
// subscription's length admits and checks each resulting non-recursive
// advertisement, which is the strategy Figure 3 implements with its q..p
// loop. Complexity O(|s|^2) as stated in the paper. The expansions are read
// in place, so it does not allocate.
func AbsExprAndSimRecAdv(a1, a2, a3 []symtab.Sym, s *xpath.XPE) bool {
	if len(a2) == 0 {
		return false
	}
	syms := s.Syms()
	// Line 1: one repetition suffices when s is no longer than a1 a2.
	rmax := 1
	if len(syms) > len(a1)+len(a2) {
		// Lines 4-6: bound the repetition count by the subscription's
		// length; one extra repetition beyond covering |s| cannot change
		// the outcome because positions past |s| are unconstrained.
		rmax = (len(syms)-len(a1))/len(a2) + 1
	}
	for r := 1; r <= rmax; r++ {
		if len(syms) > len(a1)+r*len(a2)+len(a3) {
			continue
		}
		ok := true
		for i, sym := range syms {
			var t symtab.Sym
			switch j := i - len(a1); {
			case j < 0:
				t = a1[i]
			case j < r*len(a2):
				t = a2[j%len(a2)]
			default:
				t = a3[j-r*len(a2)]
			}
			if !xpath.SymOverlaps(t, sym) {
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

// OverlapsSimRec matches any supported subscription against a
// simple-recursive advertisement by the paper's expansion strategy,
// generalising Figure 3 beyond absolute simple XPEs by reusing the
// appropriate non-recursive matcher per expansion.
//
// Figure 3's repetition bound holds only for an absolute simple XPE, whose
// steps are anchored at position 0. A floating segment (a relative start,
// or a segment after "//") can need more: "x/x/x" against /p/q(/x)+ needs
// three repetitions. Any repetition of a2 that no step lands in can be cut
// without breaking the match — it lies before a floating segment, inside a
// "//" gap, or past the last step — so s.Len() repetitions always suffice.
func OverlapsSimRec(a *Advertisement, s *xpath.XPE) bool {
	a1, a2, a3, ok := a.SplitSimple()
	if !ok {
		return false
	}
	rmax := s.Len()
	if s.IsSimple() && !s.Relative {
		rmax = (s.Len()-len(a1))/len(a2) + 1
	}
	if rmax < 1 {
		rmax = 1
	}
	full := make([]symtab.Sym, 0, len(a1)+rmax*len(a2)+len(a3))
	full = append(full, a1...)
	for r := 1; r <= rmax; r++ {
		full = append(full, a2...)
		if MatchesNonRecursive(append(full, a3...), s) {
			return true
		}
	}
	return false
}

// Expansions enumerates expansion words of the advertisement (each group
// repeated one or more times, with independent counts per iteration for
// nested groups) whose length does not exceed maxLen, invoking fn for each
// with a fresh slice. fn returns false to stop the enumeration. It serves as
// a brute-force oracle in tests and for imperfect-merging degree
// estimation.
func (a *Advertisement) Expansions(maxLen int, fn func([]symtab.Sym) bool) {
	toks := a.toks
	word := make([]symtab.Sym, 0, maxLen)
	stopped := false
	// gen expands toks[k:hi], a run of whole items, then calls cont.
	var gen func(k, hi int, cont func())
	gen = func(k, hi int, cont func()) {
		if stopped {
			return
		}
		if k == hi {
			cont()
			return
		}
		if toks[k] != symtab.GroupOpen {
			if len(word) >= maxLen {
				return
			}
			word = append(word, toks[k])
			gen(k+1, hi, cont)
			word = word[:len(word)-1]
			return
		}
		// One or more iterations of the group body, then the rest.
		end := groupEnd(toks, k)
		var iter func()
		iter = func() {
			if stopped {
				return
			}
			gen(k+1, end, func() {
				// After a complete iteration: continue with the rest...
				gen(end+1, hi, cont)
				// ...or another iteration (word length strictly grew, so
				// this terminates at maxLen).
				iter()
			})
		}
		iter()
	}
	gen(0, len(toks), func() {
		if !fn(slices.Clone(word)) {
			stopped = true
		}
	})
}
