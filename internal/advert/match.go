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
// symbols only. Acceptance requires consuming the entire path and ending
// in the accept state.
func (a *Advertisement) MatchesSymPath(path []symtab.Sym) bool {
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
				for _, e := range n.edges(w<<6 | b) {
					if e.sym == symtab.Wildcard || e.sym == sym {
						orInto(next, n.closureOf(e.to))
						found = true
					}
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

type nfaEdge struct {
	sym symtab.Sym // interned element test; symtab.Wildcard matches anything
	to  int32
}

// advNFA is an advertisement's automaton, its transitions in one compressed
// array: state st's symbol-labelled edges are all[off[st]:off[st+1]]. State
// 0 is the start state. Each state's epsilon closure is a bitset of words
// uint64s, closure[st*words:(st+1)*words], so the matchers simulate the
// automaton on state sets without its epsilon edges, which construction
// drops. An automaton of at most 64 states (every DTD-derived
// advertisement) has one-word sets.
type advNFA struct {
	off     []int32
	all     []nfaEdge
	accept  int32
	words   int
	closure []uint64
}

// stackWords is the widest state set, in words, the matchers keep on the
// stack: automata of up to 4·64 states simulate without allocating.
const stackWords = 4

// edges returns state st's symbol-labelled transitions.
func (n *advNFA) edges(st int) []nfaEdge { return n.all[n.off[st]:n.off[st+1]] }

// closureOf returns state st's epsilon closure.
func (n *advNFA) closureOf(st int32) []uint64 {
	i := int(st) * n.words
	return n.closure[i : i+n.words]
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

// nfaBuilder holds an automaton under construction with its epsilon edges,
// laid out like the symbol edges: state st's are eps[epsOff[st]:epsOff[st+1]].
type nfaBuilder struct {
	n      *advNFA
	epsOff []int32
	eps    []int32
}

// compileNFA builds the automaton: one state per symbol plus a private entry
// state per group.
func (a *Advertisement) compileNFA() *advNFA {
	syms, groups := nfaSize(a.Items)
	states := 1 + syms + groups
	n := &advNFA{
		off:   make([]int32, 0, states+1),
		all:   make([]nfaEdge, 0, syms),
		words: (states + 63) >> 6,
	}
	b := nfaBuilder{
		n:      n,
		epsOff: make([]int32, 0, states+1),
		eps:    make([]int32, 0, 2*groups),
	}
	b.newState()
	n.accept = b.compile(a.Items, 0)
	n.off = append(n.off, int32(len(n.all)))
	b.epsOff = append(b.epsOff, int32(len(b.eps)))

	n.closure = make([]uint64, states*n.words)
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
			q := w<<6 | bit
			for _, to := range b.eps[b.epsOff[q]:b.epsOff[q+1]] {
				if m := uint64(1) << uint(to&63); row[to>>6]&m == 0 {
					row[to>>6] |= m
					pending[to>>6] |= m
					w = min(w, int(to>>6))
				}
			}
		}
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
func (b *nfaBuilder) compile(seq []Item, cur int32) int32 {
	for _, it := range seq {
		if it.IsGroup() {
			// The group gets a private entry state so that its loop-back
			// cannot leak into epsilon edges of whatever preceded it.
			b.eps = append(b.eps, cur+1)
			entry := b.newState()
			end := b.compile(it.Group, entry)
			// One-or-more: after a full iteration, loop back.
			b.eps = append(b.eps, entry)
			cur = end
		} else {
			b.n.all = append(b.n.all, nfaEdge{sym: symtab.Intern(it.Name), to: cur + 1})
			cur = b.newState()
		}
	}
	return cur
}

// newState opens the next state's rows and returns its id.
func (b *nfaBuilder) newState() int32 {
	b.n.off = append(b.n.off, int32(len(b.n.all)))
	b.epsOff = append(b.epsOff, int32(len(b.eps)))
	return int32(len(b.n.off) - 1)
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
			for _, e := range n.edges(w<<6 | b) {
				to := n.closureOf(e.to)
				if skip {
					for i, t := range to {
						if fresh := t &^ reached[i]; fresh != 0 {
							reached[i] |= fresh
							pending[i] |= fresh
							w = min(w, i)
						}
					}
				}
				if xpath.SymOverlaps(e.sym, sym) {
					orInto(next, to)
					found = true
				}
			}
		}
		if !found {
			return false
		}
		reached, next = next, reached
	}
	return true
}
