// Package cover implements covering (containment) detection between XPath
// expressions: s1 covers s2 iff every publication matching s2 also matches
// s1 (P(s1) ⊇ P(s2)). Covering is what lets a broker drop redundant
// subscriptions from its routing table.
//
// The package provides the paper's Section 4.2 algorithms — AbsSimCov and
// RelSimCov (exact for simple expressions) and DesCov (the greedy
// segment-matching procedure for expressions with descendant operators,
// which is sound but may miss some covering relations) — plus an exact
// automaton-inclusion decision procedure used as the production path for
// descendant expressions and as the testing oracle.
package cover

import (
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// Covers reports whether s1 covers s2 (P(s1) ⊇ P(s2)). It is exact for all
// supported expression forms: simple expressions dispatch to the paper's
// pairwise algorithms, expressions with descendant operators use automaton
// inclusion.
func Covers(s1, s2 *xpath.XPE) bool {
	if s1.Len() == 0 || s2.Len() == 0 {
		return false
	}
	if !necessary(s1, s2) {
		return false
	}
	if s1.IsSimple() && s2.IsSimple() {
		if s1.Relative {
			return RelSimCov(s1, s2)
		}
		if !s2.Relative {
			return AbsSimCov(s1, s2)
		}
	}
	// The remaining pairs have a relative s2 or a descendant operator. The
	// procedures below reason over structure only, so a predicate-carrying
	// s1 is conservatively reported as not covering (predicates only narrow
	// s1, and missing a covering relation is always safe). A
	// predicate-carrying s2 needs no special handling: it only narrows s2.
	if s1.HasPredicates() {
		return false
	}
	if s1.IsSimple() && !s1.Relative {
		return absSimCovFloating(s1, s2)
	}
	// The greedy procedure is sound and cheap; it settles almost every pair.
	// Only its misses pay for the exact automaton check.
	if DesCov(s1, s2) {
		return true
	}
	return CoversExact(s1, s2)
}

// necessary applies O(n) conditions every covering pair satisfies, so that
// bulk scans reject non-covering pairs without reaching the automaton:
// s1 may not have more steps than s2 (each step consumes at least one path
// element), and s1's concrete name tests must embed as an ordered
// subsequence of s2's (instantiate s2's wildcards with fresh names: the
// resulting path matches s2, so it must match s1, whose concrete names then
// all align with concrete names of s2, in order).
func necessary(s1, s2 *xpath.XPE) bool {
	if s1.Len() > s2.Len() {
		return false
	}
	a, b := s1.Syms(), s2.Syms()
	j := 0
	for _, sym := range a {
		if sym == symtab.Wildcard {
			continue
		}
		for {
			if j == len(b) {
				return false
			}
			j++
			if b[j-1] == sym {
				break
			}
		}
	}
	return true
}

// Signature folds x's concrete name tests into a 64-bit set, one bit per
// interned symbol modulo 64. A covering s1 has all its concrete names among
// s2's (see necessary), so Covers(s1, s2) implies
// Signature(s1)&^Signature(s2) == 0: bulk scans that keep each stored
// expression's signature reject most pairs with one AND, before Covers.
func Signature(x *xpath.XPE) uint64 {
	var sig uint64
	for _, sym := range x.Syms() {
		if sym != symtab.Wildcard {
			sig |= 1 << (sym % 64)
		}
	}
	return sig
}

// AbsSimCov is the paper's covering algorithm for two absolute simple XPEs:
// s1 covers s2 iff s1 is no longer than s2 and every aligned pair of element
// tests satisfies the covering rule.
func AbsSimCov(s1, s2 *xpath.XPE) bool {
	if s1.Len() > s2.Len() {
		return false
	}
	a, b := s1.Syms(), s2.Syms()
	for i, st := range s1.Steps {
		if !xpath.StepCoversSym(a[i], b[i], st, s2.Steps[i]) {
			return false
		}
	}
	return true
}

// absSimCovFloating decides exactly whether an absolute simple s1 covers an
// s2 that is relative or has a descendant operator. A path matching s2 pins
// only the elements of s2's first segment, and only when s2 is anchored
// there (absolute, first operator "/"); a "//" gap, or a relative start,
// admits any number of arbitrary elements. So s1 covers s2 iff s1's tests
// cover s2's on the pinned positions, s1 has "*" everywhere after them, and
// s1 is no longer than s2 (a path matching s2 may have just one element per
// step). The paper says an absolute s1 never covers a relative s2; "/*/*"
// covering "a/b" is the exception this rule keeps. Covers calls it after
// necessary, which has checked the length.
func absSimCovFloating(s1, s2 *xpath.XPE) bool {
	pinned := 0
	if !s2.Relative && s2.Steps[0].Axis == xpath.Child {
		pinned = s2.SegmentEnd(0)
	}
	a, b := s1.Syms(), s2.Syms()
	for i, sym := range a {
		if i < pinned {
			if !xpath.SymCovers(sym, b[i]) {
				return false
			}
		} else if sym != symtab.Wildcard {
			return false
		}
	}
	return true
}

// RelSimCov is the paper's covering algorithm for a relative simple s1
// against a simple s2 (absolute or relative): s1 covers s2 iff s1's tests
// cover an aligned run of s2's tests at some offset. The alignment must fit
// entirely within s2's constrained region — a path matching s2 may end right
// after it.
func RelSimCov(s1, s2 *xpath.XPE) bool {
	k := s1.Len()
	if k > s2.Len() {
		return false
	}
	a, b := s1.Syms(), s2.Syms()
	for c := 0; c+k <= s2.Len(); c++ {
		if relCovAt(s1, s2, a, b, c) {
			return true
		}
	}
	return false
}

func relCovAt(s1, s2 *xpath.XPE, a, b []symtab.Sym, c int) bool {
	for i, st := range s1.Steps {
		if !xpath.StepCoversSym(a[i], b[c+i], st, s2.Steps[c+i]) {
			return false
		}
	}
	return true
}

// DesCov is the paper's greedy covering procedure for expressions with
// descendant operators: s1 is split at its "//" operators into simple
// segments that are matched in order against s2's segments. A segment of s1
// normally may not span a "//" of s2 (the gap admits arbitrary elements,
// which only wildcards can cover); the special case the paper identifies —
// a segment ending in wildcards may extend across a gap that ends at its
// final test — is handled by letting trailing wildcards of a segment absorb
// gap positions.
//
// DesCov is sound (it never claims a covering that does not hold) but, being
// greedy over segment placements, it may fail to detect some coverings;
// CoversExact is the complete decision procedure. Both are exercised against
// each other in the package tests.
func DesCov(s1, s2 *xpath.XPE) bool {
	if s1.Len() > s2.Len() {
		return false
	}
	if !s1.Relative && s2.Relative {
		return false
	}
	// anchored: the first segment of an absolute s1 must align at the very
	// start of an absolute s2's first segment. Segments are walked as step
	// ranges (xpath.XPE.SegmentEnd), so the procedure does not allocate.
	anchored := !s1.Relative && s1.Steps[0].Axis != xpath.Descendant
	if anchored && s2.Steps[0].Axis == xpath.Descendant {
		// s2 may start arbitrarily deep; an anchored s1 cannot cover it.
		return false
	}
	start2, end2 := 0, s2.SegmentEnd(0) // current segment of s2
	off := 0                            // offset within it
	for start1, end1 := 0, 0; start1 < s1.Len(); start1 = end1 {
		end1 = s1.SegmentEnd(start1)
		sg1 := s1.Steps[start1:end1]
		placed := false
		for ; start2 < s2.Len(); start2, end2, off = end2, s2.SegmentEnd(end2), 0 {
			sg2 := s2.Steps[start2:end2]
			if start1 == 0 && anchored {
				if coverAt(sg1, sg2, 0) {
					off = len(sg1)
					placed = true
					break
				}
				return false
			}
			p := findCover(sg1, sg2, off)
			if p >= 0 {
				off = p + len(sg1)
				placed = true
				break
			}
		}
		if !placed {
			return false
		}
		// A segment of s1 connected to its successor by "//" may leave the
		// rest of s2's current segment to the gap; a segment connected by
		// the end of s1 leaves the remainder to s1's implicit trailing
		// freedom.
	}
	return true
}

// coverAt reports whether the name tests of seg1 cover those of
// seg2[c:c+len(seg1)]. Trailing tests of seg1 that are wildcards may extend
// past seg2's end into the following gap only when the caller knows a gap
// follows; this basic form requires the run to fit.
func coverAt(seg1, seg2 []xpath.Step, c int) bool {
	if c+len(seg1) > len(seg2) {
		return false
	}
	for i, st := range seg1 {
		if !xpath.SymbolCovers(st.Name, seg2[c+i].Name) {
			return false
		}
	}
	return true
}

// findCover returns the smallest offset >= from at which seg1 covers a run
// of seg2, or -1.
func findCover(seg1, seg2 []xpath.Step, from int) int {
	for c := from; c+len(seg1) <= len(seg2); c++ {
		if coverAt(seg1, seg2, c) {
			return c
		}
	}
	return -1
}

// CoversAdvertisement reports whether non-recursive advertisement tests a1
// cover a2. Advertisements use the same pairwise covering rule as absolute
// simple XPEs, but their publication sets contain only paths of exactly the
// advertisement's length, so covering additionally requires equal length —
// a shorter advertisement describes different-length publications, and
// dropping the longer one would lose subscriptions routed toward it.
func CoversAdvertisement(a1, a2 []string) bool {
	if len(a1) != len(a2) {
		return false
	}
	for i, n := range a1 {
		if !xpath.SymbolCovers(n, a2[i]) {
			return false
		}
	}
	return true
}
