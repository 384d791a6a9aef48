package advert

import (
	"math/bits"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// Index is a set of advertisements that answers one question: does any
// member overlap a subscription? A broker keeps one per last hop, so a
// subscription's next hops are the hops whose index says yes.
//
// Members live in slots. Per interned element symbol the index keeps a
// bitset of the slots whose advertisement names that symbol anywhere, nested
// "(...)+" groups included; it also keeps the slots with a "*" item and the
// live slots. Overlap needs one publication path that the advertisement and
// the subscription both accept, and a concrete step of the subscription can
// only consume a path element that the advertisement produces under the same
// name or under "*". So a member lacking one of the subscription's concrete
// symbols, with no "*" item to stand in for it, cannot overlap, and Overlaps
// runs the exact check (Advertisement.Overlaps) only on the slots that
// survive that filter. The filter decides nothing on its own: every verdict
// comes from the paper's algorithms.
//
// The zero value is an empty index. An Index is not safe for concurrent use.
type Index struct {
	advs  []*Advertisement // by slot; nil while the slot is free
	free  []int            // free slots, reused last-in first-out
	n     int              // live members
	live  bitset
	wild  bitset
	posts map[symtab.Sym]bitset

	checks uint64 // exact checks Overlaps has run
}

// bitset is a growable set of slots, one bit per slot; words past its end
// are zero.
type bitset []uint64

func (s bitset) word(w int) uint64 {
	if w < len(s) {
		return s[w]
	}
	return 0
}

func (s bitset) set(slot int) bitset {
	w := slot / 64
	for len(s) <= w {
		s = append(s, 0)
	}
	s[w] |= 1 << uint(slot%64)
	return s
}

func (s bitset) clear(slot int) {
	if w := slot / 64; w < len(s) {
		s[w] &^= 1 << uint(slot%64)
	}
}

// Add enters an advertisement and returns its slot, which Remove takes back.
// It costs O(items of the advertisement).
func (ix *Index) Add(a *Advertisement) int {
	var slot int
	if n := len(ix.free); n > 0 {
		slot = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.advs[slot] = a
	} else {
		slot = len(ix.advs)
		ix.advs = append(ix.advs, a)
	}
	ix.n++
	ix.live = ix.live.set(slot)
	if ix.posts == nil {
		ix.posts = make(map[symtab.Sym]bitset)
	}
	ix.post(a.toks, slot)
	return slot
}

// post sets slot in the posting of every name in toks, groups included.
func (ix *Index) post(toks []symtab.Sym, slot int) {
	for _, t := range toks {
		switch {
		case t == symtab.Wildcard:
			ix.wild = ix.wild.set(slot)
		case isName(t):
			ix.posts[t] = ix.posts[t].set(slot)
		}
	}
}

// unpost clears slot from the posting of every name in toks.
func (ix *Index) unpost(toks []symtab.Sym, slot int) {
	for _, t := range toks {
		switch {
		case t == symtab.Wildcard:
			ix.wild.clear(slot)
		case isName(t):
			ix.posts[t].clear(slot)
		}
	}
}

// Remove takes the member in slot out of the index; the slot is reused by a
// later Add. It costs O(items of the advertisement). Postings of symbols no
// member names any more stay behind, zeroed: the symbol alphabet is bounded
// by the shared symbol table, which never shrinks either.
func (ix *Index) Remove(slot int) {
	a := ix.advs[slot]
	if a == nil {
		panic("advert: Index.Remove of a free slot")
	}
	ix.unpost(a.toks, slot)
	ix.live.clear(slot)
	ix.advs[slot] = nil
	ix.free = append(ix.free, slot)
	ix.n--
}

// Len returns the number of members.
func (ix *Index) Len() int { return ix.n }

// At returns the member in slot, or nil if the slot is free.
func (ix *Index) At(slot int) *Advertisement {
	if slot < 0 || slot >= len(ix.advs) {
		return nil
	}
	return ix.advs[slot]
}

// Checks returns how many exact overlap checks Overlaps has run over the
// index's lifetime: the work the symbol filter did not prune.
func (ix *Index) Checks() uint64 { return ix.checks }

// Overlaps reports whether any member overlaps x, i.e. whether a subscription
// x must be forwarded toward this index's hop. It works one 64-slot word at a
// time: the live slots, ANDed per concrete symbol of x with that symbol's
// posting OR the wildcard slots, are the candidates; the exact check runs on
// each in slot order and the first overlap answers. It does not allocate
// once x's symbols are cached (xpath.XPE.Syms) and the candidates' exact
// checks are warm.
func (ix *Index) Overlaps(x *xpath.XPE) bool {
	if ix.n == 0 || x.Len() == 0 {
		return false
	}
	var buf [16]bitset
	need := buf[:0]
	for _, sym := range x.Syms() {
		if sym != symtab.Wildcard {
			need = append(need, ix.posts[sym])
		}
	}
	for w, cand := range ix.live {
		wild := ix.wild.word(w)
		for _, p := range need {
			if cand &= p.word(w) | wild; cand == 0 {
				break
			}
		}
		for ; cand != 0; cand &= cand - 1 {
			ix.checks++
			if ix.advs[w*64+bits.TrailingZeros64(cand)].Overlaps(x) {
				return true
			}
		}
	}
	return false
}
