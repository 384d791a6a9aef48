package advert

import (
	"math/bits"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// Overlaps reports whether the advertisement's publication set intersects
// the subscription's publication set, i.e. whether a subscription must be
// forwarded toward the advertisement's producer. It dispatches to the
// paper's algorithms for non-recursive advertisements and to the automaton
// matcher for recursive ones. It does not allocate once the subscription's
// symbols are cached (xpath.XPE.Syms) and a recursive advertisement's
// automaton is compiled.
func (a *Advertisement) Overlaps(s *xpath.XPE) bool {
	if s.Len() == 0 {
		return false
	}
	if a.IsRecursive() {
		return a.overlapsNFA(s)
	}
	return MatchesNonRecursive(a.toks, s)
}

// MatchesNonRecursive implements the paper's Section 3.2 dispatch for a
// non-recursive advertisement (given as its element-test symbols) against
// any supported subscription.
func MatchesNonRecursive(adv []symtab.Sym, s *xpath.XPE) bool {
	switch {
	case !s.IsSimple():
		return DesExprAndAdv(adv, s)
	case s.Relative:
		return RelExprAndAdv(adv, s)
	default:
		return AbsExprAndAdv(adv, s)
	}
}

// AbsExprAndAdv is the paper's matching algorithm for absolute simple XPEs
// against non-recursive advertisements: the subscription may not be longer
// than the advertisement, and every aligned pair of element tests must
// overlap.
func AbsExprAndAdv(adv []symtab.Sym, s *xpath.XPE) bool {
	syms := s.Syms()
	if len(syms) > len(adv) {
		return false
	}
	for i, sym := range syms {
		if !xpath.SymOverlaps(adv[i], sym) {
			return false
		}
	}
	return true
}

// RelExprAndAdv is the matching algorithm for relative simple XPEs against
// non-recursive advertisements: it looks for an alignment of the
// subscription at any start offset of the advertisement.
//
// The paper proposes adapting KMP to reach O(n). With wildcards on both
// sides the "overlaps" relation is not transitive, so a literal KMP failure
// function can skip viable alignments (false negatives, which in routing
// means lost publications). This implementation is therefore an anchored
// scan: it picks the subscription's least frequent concrete element as an
// anchor, scans the advertisement for positions compatible with that anchor,
// and verifies each candidate. It is sound and complete, O(n) in practice
// and O(n*k) worst case; see DESIGN.md.
func RelExprAndAdv(adv []symtab.Sym, s *xpath.XPE) bool {
	syms := s.Syms()
	k := len(syms)
	if k > len(adv) {
		return false
	}
	anchor := -1 // index in s of the anchor element
	for i, sym := range syms {
		if sym != symtab.Wildcard {
			anchor = i
			break
		}
	}
	if anchor == -1 {
		// All-wildcard subscription: any advertisement at least as long
		// overlaps.
		return true
	}
	name := syms[anchor]
	// A start offset c aligns step anchor with adv[c+anchor].
	for c := 0; c+k <= len(adv); c++ {
		if !xpath.SymOverlaps(adv[c+anchor], name) {
			continue
		}
		if segMatchesAt(adv, syms, c) {
			return true
		}
	}
	return false
}

// RelExprAndAdvNaive is the unoptimised relative matcher the paper
// describes before proposing its KMP adaptation: try every start offset.
// It exists as the ablation baseline for RelExprAndAdv.
func RelExprAndAdvNaive(adv []symtab.Sym, s *xpath.XPE) bool {
	return findSegment(adv, s.Syms(), 0) >= 0
}

// DesExprAndAdv is the matching algorithm for XPEs containing descendant
// operators against non-recursive advertisements: the subscription is split
// at its "//" operators into maximal simple segments, which are matched
// against the advertisement left to right; the first segment is anchored at
// position 0 when the subscription is absolute, every other segment may
// float. Greedy leftmost placement is complete because placing a segment
// earlier only leaves more room for its successors. The segments are walked
// as step ranges of s (xpath.XPE.SegmentEnd), so matching does not allocate.
func DesExprAndAdv(adv []symtab.Sym, s *xpath.XPE) bool {
	syms := s.Syms()
	pos := 0
	for start, end := 0, 0; start < len(syms); start = end {
		end = s.SegmentEnd(start)
		seg := syms[start:end]
		if start == 0 && !s.Skips(0) {
			// Anchored first segment.
			if !segMatchesAt(adv, seg, 0) {
				return false
			}
			pos = len(seg)
		} else {
			p := findSegment(adv, seg, pos)
			if p < 0 {
				return false
			}
			pos = p + len(seg)
		}
	}
	return true
}

// segMatchesAt reports whether every name test of seg overlaps adv starting
// at offset c.
func segMatchesAt(adv, seg []symtab.Sym, c int) bool {
	if c+len(seg) > len(adv) {
		return false
	}
	for i, sym := range seg {
		if !xpath.SymOverlaps(adv[c+i], sym) {
			return false
		}
	}
	return true
}

// findSegment returns the smallest offset >= from at which seg overlaps adv,
// or -1.
func findSegment(adv, seg []symtab.Sym, from int) int {
	for c := from; c+len(seg) <= len(adv); c++ {
		if segMatchesAt(adv, seg, c) {
			return c
		}
	}
	return -1
}

// MatchesPath reports whether a concrete root-to-leaf publication path is in
// the advertisement's publication set, i.e. the path is an expansion of the
// advertisement (wildcard tests match any element; every group repeats one
// or more times; lengths must agree exactly). It is the string adapter over
// MatchesSymPath. The path is converted with Lookup, NOT Intern, so foreign
// publication paths never grow the shared interner on the publish hot path:
// construction interned every name of the advertisement, so a path element
// Lookup maps to None provably differs from every concrete test and can only
// be matched by a wildcard, exactly the string semantics.
func (a *Advertisement) MatchesPath(path []string) bool {
	return a.MatchesSymPath(symtab.LookupPath(path))
}

// MatchesSymPath is MatchesPath over an interned path: the advertisement's
// alphabet is the shared symbol table, so matching compares uint32 symbols
// only. A non-recursive advertisement compares position by position; a
// recursive one runs its automaton, which accepts only on consuming the
// entire path in the accept state.
func (a *Advertisement) MatchesSymPath(path []symtab.Sym) bool {
	if !a.IsRecursive() {
		if len(path) != len(a.toks) {
			return false
		}
		for i, t := range a.toks {
			if t != symtab.Wildcard && t != path[i] {
				return false
			}
		}
		return true
	}
	n := a.nfa()
	var buf [2 * stackWords]uint64
	sets := n.scratch(buf[:], 2)
	cur, next := sets[:n.words], sets[n.words:]
	orInto(cur, n.closureOf(0))
	for _, sym := range path {
		clear(next)
		found := false
		for w, word := range cur {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << uint(b)
				st := w<<6 | b
				if lab := n.label(st); lab != symtab.None && (lab == symtab.Wildcard || lab == sym) {
					orInto(next, n.closureOf(int32(st+1)))
					found = true
				}
			}
		}
		if !found {
			return false
		}
		cur, next = next, cur
	}
	return cur[n.accept>>6]&(1<<uint(n.accept&63)) != 0
}

// --- automaton construction and the general overlap matcher ---

// advNFA is an advertisement's automaton. Construction makes one state per
// element test plus a private entry state per group, in token order, so
// every state but the accept state has exactly one forward transition, to
// the next state: labelled with the element test that created that state,
// or an epsilon transition into a group's entry state. The other epsilon
// transitions are the groups' loop-backs. State 0 is the start state and
// the last state accepts.
//
// The automaton is one block of rows, one per state: the state's out-label
// (symtab.None for an epsilon transition or the accept state), then its
// epsilon closure as a bitset of words uint64s. The matchers simulate the
// automaton on state sets through the closures, so no epsilon transition is
// kept. An automaton of at most 64 states (every DTD-derived advertisement)
// has one-word sets.
type advNFA struct {
	rows   []uint64
	accept int32
	words  int
}

// stackWords is the widest state set, in words, the matchers keep on the
// stack: automata of up to 4·64 states simulate without allocating.
const stackWords = 4

// states returns the number of states.
func (n *advNFA) states() int { return len(n.rows) / (n.words + 1) }

// label returns the symbol on state st's forward transition, or symtab.None
// if st has no symbol-labelled transition.
func (n *advNFA) label(st int) symtab.Sym { return symtab.Sym(n.rows[st*(n.words+1)]) }

// closureOf returns state st's epsilon closure.
func (n *advNFA) closureOf(st int32) []uint64 {
	i := int(st)*(n.words+1) + 1
	return n.rows[i : i+n.words]
}

// scratch returns sets state sets laid end to end, in buf (which must be
// zero) when they fit.
func (n *advNFA) scratch(buf []uint64, sets int) []uint64 {
	if need := sets * n.words; need <= len(buf) {
		return buf[:need]
	}
	return make([]uint64, sets*n.words)
}

// orInto adds every state of src to dst.
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// nfa returns the automaton of a recursive advertisement, whose language is
// exactly its expansion set, compiling it on first use. Racing first callers
// compile equivalent automata and one wins the CAS, so a caller never
// observes a partially built automaton.
func (a *Advertisement) nfa() *advNFA {
	if n := a.nfaCached.Load(); n != nil {
		return n
	}
	n := compileNFA(a.toks)
	if a.nfaCached.CompareAndSwap(nil, n) {
		return n
	}
	return a.nfaCached.Load()
}

// loopBack is a group's epsilon transition from its last state back to its
// entry state.
type loopBack struct{ from, to int32 }

// compileNFA builds the automaton of a token string in two allocations, the
// struct and its rows. The token string is walked once, numbering the
// states as their tokens come: the entry states of the open groups wait on
// a stack, and each group close records its loop-back. The closures are
// then computed from the forward epsilon transitions and the loop-backs.
func compileNFA(toks []symtab.Sym) *advNFA {
	groups := 0
	for _, t := range toks {
		if t == symtab.GroupOpen {
			groups++
		}
	}
	// The start state, and one state for every token but a group close.
	states := 1 + len(toks) - groups
	words := (states + 63) >> 6
	n := &advNFA{rows: make([]uint64, states*(words+1)), words: words}
	var openBuf [8]int32
	var backBuf [16]loopBack
	open, back := openBuf[:0], backBuf[:0]
	cur := int32(0)
	for _, t := range toks {
		switch t {
		case symtab.GroupOpen:
			// The group gets a private entry state so that its loop-back
			// cannot leak into epsilon transitions of whatever preceded it.
			cur++
			open = append(open, cur)
		case symtab.GroupClose:
			// One-or-more: after a full iteration, loop back.
			back = append(back, loopBack{from: cur, to: open[len(open)-1]})
			open = open[:len(open)-1]
		default:
			n.rows[int(cur)*(words+1)] = uint64(t)
			cur++
		}
	}
	n.accept = cur

	var buf [stackWords]uint64
	pending := n.scratch(buf[:], 1)
	for st := int32(0); st < int32(states); st++ {
		row := n.closureOf(st)
		row[st>>6] |= 1 << uint(st&63)
		pending[st>>6] |= 1 << uint(st&63)
		for w := 0; w < len(pending); {
			if pending[w] == 0 {
				w++
				continue
			}
			bit := bits.TrailingZeros64(pending[w])
			pending[w] &^= 1 << uint(bit)
			q := int32(w<<6 | bit)
			if q != n.accept && n.label(int(q)) == symtab.None {
				w = min(w, reach(row, pending, q+1))
			}
			for _, e := range back {
				if e.from == q {
					w = min(w, reach(row, pending, e.to))
				}
			}
		}
	}
	return n
}

// reach adds state to to the closure row and, if it is new there, to
// pending; it returns the word of pending to rescan from, or len(pending)
// if nothing was added.
func reach(row, pending []uint64, to int32) int {
	w, m := int(to>>6), uint64(1)<<uint(to&63)
	if row[w]&m != 0 {
		return len(pending)
	}
	row[w] |= m
	pending[w] |= m
	return w
}

// overlapsNFA decides publication-set overlap between the advertisement and
// an arbitrary supported subscription by reachability on the product of the
// advertisement automaton and the subscription's position automaton. It is
// sound and complete for all advertisement classes and all subscription
// forms, and serves as the production matcher for recursive advertisements
// and as the testing oracle for the paper's specialised algorithms.
//
// Subscription states are 0..k (number of steps consumed). Before consuming
// a step that Skips (xpath.XPE.Skips) the subscription may skip arbitrarily
// many advertisement symbols. Acceptance only requires consuming all
// subscription steps: any advertisement state can complete to a full
// expansion, so the remaining publication tail is unconstrained.
//
// A subscription step is consumed or skipped, never undone, so the search
// runs level by level: reached holds the advertisement states reached with
// j subscription steps consumed, next those reached with j+1, and pending
// the states of level j whose edges are still unexplored.
func (a *Advertisement) overlapsNFA(s *xpath.XPE) bool {
	n := a.nfa()
	subSyms := s.Syms()
	var buf [3 * stackWords]uint64
	sets := n.scratch(buf[:], 3)
	reached, next, pending := sets[:n.words], sets[n.words:2*n.words], sets[2*n.words:]
	orInto(reached, n.closureOf(0))
	for j, sym := range subSyms {
		skip := s.Skips(j)
		// One loop, not copy and clear: sets are usually one word, too
		// small for a call to memmove or memclr to pay.
		for i := range pending {
			pending[i], next[i] = reached[i], 0
		}
		found := false
		for w := 0; w < len(pending); {
			if pending[w] == 0 {
				w++
				continue
			}
			b := bits.TrailingZeros64(pending[w])
			pending[w] &^= 1 << uint(b)
			st := w<<6 | b
			lab := n.label(st)
			if lab == symtab.None {
				continue
			}
			to := n.closureOf(int32(st + 1))
			if skip {
				for i, t := range to {
					if fresh := t &^ reached[i]; fresh != 0 {
						reached[i] |= fresh
						pending[i] |= fresh
						w = min(w, i)
					}
				}
			}
			if xpath.SymOverlaps(lab, sym) {
				orInto(next, to)
				found = true
			}
		}
		if !found {
			return false
		}
		reached, next = next, reached
	}
	return true
}
