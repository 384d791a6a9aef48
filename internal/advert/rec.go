package advert

import (
	"repro/internal/xpath"
)

// SplitSimple decomposes a simple-recursive advertisement a1(a2)+a3 into its
// three non-recursive parts. ok is false if the advertisement is not
// simple-recursive.
func (a *Advertisement) SplitSimple() (a1, a2, a3 []string, ok bool) {
	if a.Classify() != SimpleRecursive {
		return nil, nil, nil, false
	}
	i := 0
	for ; !a.Items[i].IsGroup(); i++ {
		a1 = append(a1, a.Items[i].Name)
	}
	for _, it := range a.Items[i].Group {
		a2 = append(a2, it.Name)
	}
	for _, it := range a.Items[i+1:] {
		a3 = append(a3, it.Name)
	}
	return a1, a2, a3, true
}

// AbsExprAndSimRecAdv is the paper's Figure 3 algorithm: matching an
// absolute simple XPE against a simple-recursive advertisement a1(a2)+a3.
// It enumerates the number of repetitions of the recursive pattern that the
// subscription's length admits and checks each resulting non-recursive
// advertisement, which is the strategy Figure 3 implements with its q..p
// loop. Complexity O(|s|^2) as stated in the paper.
func AbsExprAndSimRecAdv(a1, a2, a3 []string, s *xpath.XPE) bool {
	if len(a2) == 0 {
		return false
	}
	base := append(append([]string{}, a1...), a2...)
	if s.Len() <= len(base) {
		// Line 1: one repetition suffices to be at least as long as s.
		return AbsExprAndAdv(base, s)
	}
	// Lines 4-6: bound the repetition count by the subscription's length; one
	// extra repetition beyond covering |s| cannot change the outcome because
	// positions past |s| are unconstrained.
	rmax := (s.Len()-len(a1))/len(a2) + 1
	expansion := append([]string{}, a1...)
	for r := 1; r <= rmax; r++ {
		expansion = append(expansion, a2...)
		full := append(append([]string{}, expansion...), a3...)
		if AbsExprAndAdv(full, s) {
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
	expansion := append([]string{}, a1...)
	for r := 1; r <= rmax; r++ {
		expansion = append(expansion, a2...)
		full := append(append([]string{}, expansion...), a3...)
		if MatchesNonRecursive(full, s) {
			return true
		}
	}
	return false
}

// Expansions enumerates expansion words of the advertisement (each group
// repeated one or more times, with independent counts per iteration for
// nested groups) whose length does not exceed maxLen, invoking fn for each.
// fn returns false to stop the enumeration. It serves as a brute-force
// oracle in tests and for imperfect-merging degree estimation.
func (a *Advertisement) Expansions(maxLen int, fn func([]string) bool) {
	word := make([]string, 0, maxLen)
	stopped := false
	// gen expands the item sequence seq starting at index k, then calls cont.
	var gen func(seq []Item, k int, cont func())
	gen = func(seq []Item, k int, cont func()) {
		if stopped {
			return
		}
		if k == len(seq) {
			cont()
			return
		}
		it := seq[k]
		if !it.IsGroup() {
			if len(word) >= maxLen {
				return
			}
			word = append(word, it.Name)
			gen(seq, k+1, cont)
			word = word[:len(word)-1]
			return
		}
		// One or more iterations of it.Group, then the rest of seq.
		var iter func()
		iter = func() {
			if stopped {
				return
			}
			gen(it.Group, 0, func() {
				// After a complete iteration: continue with seq...
				gen(seq, k+1, cont)
				// ...or another iteration (word length strictly grew, so
				// this terminates at maxLen).
				iter()
			})
		}
		iter()
	}
	gen(a.Items, 0, func() {
		w := make([]string, len(word))
		copy(w, word)
		if !fn(w) {
			stopped = true
		}
	})
}
