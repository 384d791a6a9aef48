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
	cur := n.closure(map[int]bool{0: true})
	for _, sym := range path {
		next := make(map[int]bool)
		for st := range cur {
			for _, e := range n.edges(st) {
				if e.sym == symtab.Wildcard || e.sym == sym {
					next[int(e.to)] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = n.closure(next)
	}
	return cur[int(n.accept)]
}

// matchesPath64 is the allocation-free bitmask simulation.
func (n *advNFA) matchesPath64(path []symtab.Sym) bool {
	cur := n.closure64[0]
	for _, sym := range path {
		var next uint64
		for rest := cur; rest != 0; {
			st := bits.TrailingZeros64(rest)
			rest &^= 1 << uint(st)
			for _, e := range n.edges(st) {
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
	to  int32
}

// advNFA is an advertisement's automaton, its transitions in one compressed
// array: state st's symbol-labelled edges are all[off[st]:off[st+1]]. State
// 0 is the start state. An automaton of at most 64 states (every
// DTD-derived advertisement) keeps each state's epsilon closure as a
// bitmask in closure64, so its matchers neither allocate nor need the
// epsilon edges, which are dropped. A larger one has no closure64 and keeps
// its epsilon edges, laid out the same way in epsOff and eps, for closure.
type advNFA struct {
	off       []int32
	all       []nfaEdge
	accept    int32
	closure64 []uint64
	epsOff    []int32
	eps       []int32
}

// edges returns state st's symbol-labelled transitions.
func (n *advNFA) edges(st int) []nfaEdge { return n.all[n.off[st]:n.off[st+1]] }

// epsilon returns state st's epsilon transitions (automata without
// closure64, and during construction).
func (n *advNFA) epsilon(st int) []int32 { return n.eps[n.epsOff[st]:n.epsOff[st+1]] }

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
	syms, groups := nfaSize(a.Items)
	states := 1 + syms + groups
	n := &advNFA{
		off:    make([]int32, 0, states+1),
		all:    make([]nfaEdge, 0, syms),
		epsOff: make([]int32, 0, states+1),
		eps:    make([]int32, 0, 2*groups),
	}
	n.newState()
	n.accept = n.compile(a.Items, 0)
	n.off = append(n.off, int32(len(n.all)))
	n.epsOff = append(n.epsOff, int32(len(n.eps)))
	if states <= 64 {
		n.closure64 = make([]uint64, states)
		for st := range n.closure64 {
			mask := uint64(1) << uint(st)
			for pending := mask; pending != 0; {
				q := bits.TrailingZeros64(pending)
				pending &^= 1 << uint(q)
				for _, to := range n.epsilon(q) {
					if bit := uint64(1) << uint(to); mask&bit == 0 {
						mask |= bit
						pending |= bit
					}
				}
			}
			n.closure64[st] = mask
		}
		n.epsOff, n.eps = nil, nil
	}
	return n
}

// nfaSize counts the symbols and groups of seq at any depth.
func nfaSize(seq []Item) (syms, groups int) {
	for _, it := range seq {
		if it.IsGroup() {
			s, g := nfaSize(it.Group)
			syms += s
			groups += g + 1
		} else {
			syms++
		}
	}
	return syms, groups
}

// compile lays seq down from state cur and returns the state it ends in.
// Rows are appended in state order: every edge added leaves the newest
// state (cur always is), so a state's rows are complete once the next state
// is created.
func (n *advNFA) compile(seq []Item, cur int32) int32 {
	for _, it := range seq {
		if it.IsGroup() {
			// The group gets a private entry state so that its loop-back
			// cannot leak into epsilon edges of whatever preceded it.
			n.eps = append(n.eps, cur+1)
			entry := n.newState()
			end := n.compile(it.Group, entry)
			// One-or-more: after a full iteration, loop back.
			n.eps = append(n.eps, entry)
			cur = end
		} else {
			n.all = append(n.all, nfaEdge{sym: symtab.Intern(it.Name), to: cur + 1})
			cur = n.newState()
		}
	}
	return cur
}

// newState opens the next state's rows and returns its id.
func (n *advNFA) newState() int32 {
	n.off = append(n.off, int32(len(n.all)))
	n.epsOff = append(n.epsOff, int32(len(n.eps)))
	return int32(len(n.off) - 1)
}

// overlaps64 is the allocation-free bitmask variant of the product
// reachability search. A subscription step is consumed or skipped, never
// undone, so the search runs level by level: reached holds the advertisement
// states reached with j subscription steps consumed, next those reached with
// j+1, and pending the states of level j whose edges are still unexplored.
func (n *advNFA) overlaps64(s *xpath.XPE) bool {
	subSyms := s.Syms()
	reached := n.closure64[0]
	for j, sym := range subSyms {
		skip := s.Steps[j].Axis == xpath.Descendant || (j == 0 && s.Relative)
		var next uint64
		for pending := reached; pending != 0; {
			st := bits.TrailingZeros64(pending)
			pending &^= 1 << uint(st)
			for _, e := range n.edges(st) {
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
		for _, to := range n.epsilon(st) {
			if !set[int(to)] {
				set[int(to)] = true
				stack = append(stack, int(to))
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
	for st := range n.closure(map[int]bool{0: true}) {
		push(prod{st, 0})
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if p.sub == k {
			return true
		}
		skip := s.Steps[p.sub].Axis == xpath.Descendant || (p.sub == 0 && s.Relative)
		for _, e := range n.edges(p.adv) {
			targets := n.closure(map[int]bool{int(e.to): true})
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
