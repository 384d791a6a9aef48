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
// matcher for recursive ones.
func (a *Advertisement) Overlaps(s *xpath.XPE) bool {
	if s.Len() == 0 {
		return false
	}
	if names := a.flatCached.Load(); names != nil {
		return MatchesNonRecursive(*names, s)
	}
	if a.IsRecursive() {
		return a.overlapsNFA(s)
	}
	return MatchesNonRecursive(a.FlatNames(), s)
}

// MatchesNonRecursive implements the paper's Section 3.2 dispatch for a
// non-recursive advertisement (given as its element-test sequence) against
// any supported subscription.
func MatchesNonRecursive(adv []string, s *xpath.XPE) bool {
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
func AbsExprAndAdv(adv []string, s *xpath.XPE) bool {
	if s.Len() > len(adv) {
		return false
	}
	for i, st := range s.Steps {
		if !xpath.SymbolOverlaps(adv[i], st.Name) {
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
func RelExprAndAdv(adv []string, s *xpath.XPE) bool {
	k := s.Len()
	if k > len(adv) {
		return false
	}
	anchor := -1 // index in s of the anchor element
	for i, st := range s.Steps {
		if !st.IsWildcard() {
			anchor = i
			break
		}
	}
	if anchor == -1 {
		// All-wildcard subscription: any advertisement at least as long
		// overlaps.
		return true
	}
	name := s.Steps[anchor].Name
	// A start offset c aligns s.Steps[anchor] with adv[c+anchor].
	for c := 0; c+k <= len(adv); c++ {
		if !xpath.SymbolOverlaps(adv[c+anchor], name) {
			continue
		}
		if relMatchAt(adv, s, c) {
			return true
		}
	}
	return false
}

// RelExprAndAdvNaive is the unoptimised relative matcher the paper
// describes before proposing its KMP adaptation: try every start offset.
// It exists as the ablation baseline for RelExprAndAdv.
func RelExprAndAdvNaive(adv []string, s *xpath.XPE) bool {
	k := s.Len()
	for c := 0; c+k <= len(adv); c++ {
		if relMatchAt(adv, s, c) {
			return true
		}
	}
	return false
}

func relMatchAt(adv []string, s *xpath.XPE, c int) bool {
	for i, st := range s.Steps {
		if !xpath.SymbolOverlaps(adv[c+i], st.Name) {
			return false
		}
	}
	return true
}

// DesExprAndAdv is the matching algorithm for XPEs containing descendant
// operators against non-recursive advertisements: the subscription is split
// at its "//" operators into maximal simple segments, which are matched
// against the advertisement left to right; the first segment is anchored at
// position 0 when the subscription is absolute, every other segment may
// float. Greedy leftmost placement is complete because placing a segment
// earlier only leaves more room for its successors. The segments are walked
// as step ranges of s (xpath.XPE.SegmentEnd), so matching does not allocate.
func DesExprAndAdv(adv []string, s *xpath.XPE) bool {
	pos := 0
	for start, end := 0, 0; start < s.Len(); start = end {
		end = s.SegmentEnd(start)
		seg := s.Steps[start:end]
		if start == 0 && !s.Relative && seg[0].Axis != xpath.Descendant {
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
func segMatchesAt(adv []string, seg []xpath.Step, c int) bool {
	if c+len(seg) > len(adv) {
		return false
	}
	for i, st := range seg {
		if !xpath.SymbolOverlaps(adv[c+i], st.Name) {
			return false
		}
	}
	return true
}

// findSegment returns the smallest offset >= from at which seg overlaps adv,
// or -1.
func findSegment(adv []string, seg []xpath.Step, from int) int {
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
// the automaton is materialised first (package constructors compile it at
// construction; nfa() covers hand-built literals), which guarantees every
// edge name is already in the table — a path element Lookup maps to None
// therefore provably differs from every concrete edge symbol and can only
// be matched by wildcard edges, exactly the string semantics.
func (a *Advertisement) MatchesPath(path []string) bool {
	a.nfa() // edge names are interned no later than this
	return a.MatchesSymPath(symtab.LookupPath(path))
}

// MatchesSymPath is MatchesPath over an interned path: the automaton's
// alphabet is the shared symbol table, so the simulation compares uint32
// symbols only.
func (a *Advertisement) MatchesSymPath(path []symtab.Sym) bool {
	n := a.nfa()
	if n.closure64 != nil {
		return n.matchesPath64(path)
	}
	// Simulate the NFA over the concrete path; acceptance requires consuming
	// the entire path and ending in the accept state.
	cur := n.closure(map[int]bool{n.start: true})
	for _, sym := range path {
		next := make(map[int]bool)
		for st := range cur {
			for _, e := range n.edges[st] {
				if e.sym == symtab.Wildcard || e.sym == sym {
					next[e.to] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closure(next)
	}
	return cur[n.accept]
}

// matchesPath64 is the allocation-free bitmask simulation.
func (n *advNFA) matchesPath64(path []symtab.Sym) bool {
	cur := n.closure64[n.start]
	for _, sym := range path {
		var next uint64
		for rest := cur; rest != 0; {
			st := bits.TrailingZeros64(rest)
			rest &^= 1 << uint(st)
			for _, e := range n.edges[st] {
				if e.sym == symtab.Wildcard || e.sym == sym {
					next |= n.closure64[e.to]
				}
			}
		}
		if next == 0 {
			return false
		}
		cur = next
	}
	return cur&(1<<uint(n.accept)) != 0
}

// --- automaton construction and the general overlap matcher ---

type nfaEdge struct {
	sym symtab.Sym // interned element test; symtab.Wildcard matches anything
	to  int
}

type advNFA struct {
	edges   [][]nfaEdge // symbol-labelled transitions per state
	eps     [][]int     // epsilon transitions per state
	start   int
	accept  int
	nstates int
	// closure64 holds each state's epsilon closure as a bitmask when the
	// automaton has at most 64 states (always true for DTD-derived
	// advertisements); the bitmask paths avoid per-match allocations.
	closure64 []uint64
}

// nfa returns the advertisement's automaton, whose language is exactly its
// expansion set. Constructor-built advertisements compiled it eagerly;
// hand-built literals compile here on first use, atomically — racing
// callers compile equivalent automata and one wins the CAS, so a caller
// never observes a partially built automaton.
func (a *Advertisement) nfa() *advNFA {
	if n := a.nfaCached.Load(); n != nil {
		return n
	}
	n := a.compileNFA()
	if a.nfaCached.CompareAndSwap(nil, n) {
		return n
	}
	return a.nfaCached.Load()
}

// compileNFA builds the automaton: one state per symbol plus a private entry
// state per group.
func (a *Advertisement) compileNFA() *advNFA {
	n := &advNFA{}
	newState := func() int {
		n.edges = append(n.edges, nil)
		n.eps = append(n.eps, nil)
		n.nstates++
		return n.nstates - 1
	}
	n.start = newState()
	var compile func(seq []Item, from int) int
	compile = func(seq []Item, from int) int {
		cur := from
		for _, it := range seq {
			if it.IsGroup() {
				// The group gets a private entry state so that its
				// loop-back cannot leak into epsilon edges of whatever
				// preceded it.
				entry := newState()
				n.eps[cur] = append(n.eps[cur], entry)
				end := compile(it.Group, entry)
				// One-or-more: after a full iteration, loop back.
				n.eps[end] = append(n.eps[end], entry)
				cur = end
			} else {
				next := newState()
				n.edges[cur] = append(n.edges[cur], nfaEdge{sym: symtab.Intern(it.Name), to: next})
				cur = next
			}
		}
		return cur
	}
	n.accept = compile(a.Items, n.start)
	if n.nstates <= 64 {
		n.closure64 = make([]uint64, n.nstates)
		for st := 0; st < n.nstates; st++ {
			set := n.closure(map[int]bool{st: true})
			var mask uint64
			for q := range set {
				mask |= 1 << uint(q)
			}
			n.closure64[st] = mask
		}
	}
	return n
}

// overlaps64 is the allocation-free bitmask variant of the product
// reachability search. A subscription step is consumed or skipped, never
// undone, so the search runs level by level: reached holds the advertisement
// states reached with j subscription steps consumed, next those reached with
// j+1, and pending the states of level j whose edges are still unexplored.
func (n *advNFA) overlaps64(s *xpath.XPE) bool {
	subSyms := s.Syms()
	reached := n.closure64[n.start]
	for j, sym := range subSyms {
		skip := s.Steps[j].Axis == xpath.Descendant || (j == 0 && s.Relative)
		var next uint64
		for pending := reached; pending != 0; {
			st := bits.TrailingZeros64(pending)
			pending &^= 1 << uint(st)
			for _, e := range n.edges[st] {
				to := n.closure64[e.to]
				if skip {
					pending |= to &^ reached
					reached |= to
				}
				if xpath.SymOverlaps(e.sym, sym) {
					next |= to
				}
			}
		}
		if next == 0 {
			return false
		}
		reached = next
	}
	return true
}

// closure expands a state set across epsilon transitions in place and
// returns it.
func (n *advNFA) closure(set map[int]bool) map[int]bool {
	var stack []int
	for st := range set {
		stack = append(stack, st)
	}
	for len(stack) > 0 {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, to := range n.eps[st] {
			if !set[to] {
				set[to] = true
				stack = append(stack, to)
			}
		}
	}
	return set
}

// overlapsNFA decides publication-set overlap between the advertisement and
// an arbitrary supported subscription by reachability on the product of the
// advertisement automaton and the subscription's position automaton. It is
// sound and complete for all advertisement classes and all subscription
// forms, and serves as the production matcher for recursive advertisements
// and as the testing oracle for the paper's specialised algorithms.
//
// Subscription states are 0..k (number of steps consumed). Before consuming
// a Descendant step — or at state 0 of a relative subscription — the
// subscription may skip arbitrarily many advertisement symbols. Acceptance
// only requires consuming all subscription steps: any advertisement state
// can complete to a full expansion, so the remaining publication tail is
// unconstrained.
func (a *Advertisement) overlapsNFA(s *xpath.XPE) bool {
	n := a.nfa()
	if n.closure64 != nil {
		return n.overlaps64(s)
	}
	k := s.Len()
	subSyms := s.Syms()
	type prod struct{ adv, sub int }
	seen := make(map[prod]bool)
	var queue []prod
	push := func(p prod) {
		if !seen[p] {
			seen[p] = true
			queue = append(queue, p)
		}
	}
	for st := range n.closure(map[int]bool{n.start: true}) {
		push(prod{st, 0})
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if p.sub == k {
			return true
		}
		skip := s.Steps[p.sub].Axis == xpath.Descendant || (p.sub == 0 && s.Relative)
		for _, e := range n.edges[p.adv] {
			targets := n.closure(map[int]bool{e.to: true})
			for to := range targets {
				if skip {
					push(prod{to, p.sub})
				}
				if xpath.SymOverlaps(e.sym, subSyms[p.sub]) {
					push(prod{to, p.sub + 1})
				}
			}
		}
	}
	return false
}
