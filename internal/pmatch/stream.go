package pmatch

import (
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// This file adds the streaming execution mode of the shared automaton: a
// Cursor runs the same NFA over a document's element OPEN/CLOSE events
// instead of over one flattened root-to-leaf path. The frontier of active
// states is kept per open element — Enter computes the child frontier from
// the parent's exactly like one step of Automaton.run, Leave discards it —
// so a whole document is matched in a single pre-order traversal without
// ever materialising its paths. The language is identical by construction:
// the frontier reached after Enter(e1)...Enter(ek) is the frontier run()
// reaches after consuming the path [e1..ek], and every root-to-node path of
// the document is exactly one such Enter chain.
//
// Acceptance differs from run() only in WHEN predicates are evaluated.
// run() post-filters a predicate-carrying entry once per path with the
// whole path in hand; a Cursor sees paths incrementally, so it reports the
// entry to the visitor at every structural accept and lets the visitor
// decide (returning true settles the entry for the rest of the document,
// false keeps it eligible at later accepts). A visitor that evaluates
// MatchesSymPathAttrs against the current root-to-node stack and settles on
// success computes exactly the union-over-paths verdict of the per-path
// runs: every stack prefix at an accept event is a real root-to-node path
// prefix, and every position at which an expression completes on some path
// generates an accept event on that path's Enter chain.

// AcceptFunc receives one structural accept event: entry's expression x
// completed at the element just entered. Returning true settles the entry —
// it is not reported again for the rest of the run; returning false keeps
// it eligible (used by predicate post-filters that could not yet confirm
// the match). data is the payload registered with Table.Add.
type AcceptFunc func(x *xpath.XPE, hasPreds bool, data any) bool

// Cursor is a stack-shaped execution of the automaton over a document's
// element events. Obtain one with Automaton.Cursor, drive it with
// Enter/Leave mirroring the document's element nesting, and return it with
// Release. A Cursor is not safe for concurrent use; distinct Cursors on one
// Automaton are.
type Cursor struct {
	a *Automaton
	// frontier holds the active state sets of all open depths back to back;
	// offs[d] is the start of depth d's set (depth 0 is the start closure).
	// Leave is two truncations — the document stack IS the NFA state.
	frontier []*state
	offs     []int32
	// Epoch-stamped dedup, as in scratch: states per position (one Enter is
	// one position), entries per run.
	stateStamp []uint32
	entryStamp []uint32
	stateEpoch uint32
	entryEpoch uint32
}

// Cursor returns a pooled cursor positioned at the document root (depth 0,
// before any Enter): the start state and its epsilon closure are active.
func (a *Automaton) Cursor() *Cursor {
	c := a.pools.cursors.Get().(*Cursor)
	c.a = a
	c.stateStamp = fitStamps(c.stateStamp, a.stateIDs)
	c.entryStamp = fitStamps(c.entryStamp, a.entryIDs)
	c.frontier = frontierCap(c.frontier, a.stateIDs)
	c.Reset()
	return c
}

// Release returns the cursor to its automaton's pool. The cursor must not
// be used afterwards.
func (c *Cursor) Release() {
	p := c.a.pools
	c.a = nil // a pooled cursor must not pin an old version
	p.cursors.Put(c)
}

// Reset rewinds the cursor to the root of a new document. Entries settled
// in the previous document become eligible again.
func (c *Cursor) Reset() {
	c.frontier = c.frontier[:0]
	c.offs = c.offs[:0]
	c.entryEpoch++
	if c.entryEpoch == 0 { // epoch wrapped: stale stamps could collide
		clearStamps(c.entryStamp)
		c.entryEpoch = 1
	}
	c.beginPosition()
	c.offs = append(c.offs, 0)
	// Depth 0: the start state and, by epsilon, its skip state. No entry can
	// accept here (expressions have at least one step), so no visitor runs.
	c.push(c.a.root, nil)
}

// Depth returns the number of open elements (Enters minus Leaves).
func (c *Cursor) Depth() int { return len(c.offs) - 1 }

// Enter descends into a child element with the given interned name,
// computing the new frontier from the current one (exactly one position of
// Automaton.run) and reporting unsettled entries that accept at the new
// element through visit. Names outside the interned alphabet are passed as
// symtab.None and match only wildcard and skip transitions — LookupBytes
// semantics, identical to the per-path matchers. visit may be nil to ignore
// accepts (validation-only scans).
func (c *Cursor) Enter(sym symtab.Sym, visit AcceptFunc) {
	parentStart := int(c.offs[len(c.offs)-1])
	parentEnd := len(c.frontier)
	c.offs = append(c.offs, int32(parentEnd))
	c.beginPosition()
	// Iterate the parent frontier by index: push appends to the shared
	// backing slice and may reallocate it.
	for i := parentStart; i < parentEnd; i++ {
		st := c.frontier[i]
		if st.selfLoop {
			// Skip states consume any element and stay active.
			c.push(st, visit)
		}
		if t := st.step(sym); t != nil {
			c.push(t, visit)
		}
		if st.wild != nil {
			c.push(st.wild, visit)
		}
	}
}

// Leave closes the current element, discarding its frontier. Calling Leave
// at depth 0 is a programming error and panics.
func (c *Cursor) Leave() {
	if len(c.offs) <= 1 {
		panic("pmatch: Cursor.Leave below document root")
	}
	c.frontier = c.frontier[:c.offs[len(c.offs)-1]]
	c.offs = c.offs[:len(c.offs)-1]
}

// beginPosition opens a fresh state-dedup window (one per Enter).
func (c *Cursor) beginPosition() {
	c.stateEpoch++
	if c.stateEpoch == 0 {
		clearStamps(c.stateStamp)
		c.stateEpoch = 1
	}
}

// push marks a state active (deduplicated per position), adds it to the top
// frontier if it can consume an element, reports its accepting entries, and
// follows the epsilon edge into its skip state — the Cursor form of
// Automaton.activate.
func (c *Cursor) push(st *state, visit AcceptFunc) {
	for {
		if c.stateStamp[st.id] == c.stateEpoch {
			return
		}
		c.stateStamp[st.id] = c.stateEpoch
		if st.consumes() {
			c.frontier = append(c.frontier, st)
		}
		if visit != nil {
			for i := range st.accept {
				e := &st.accept[i]
				if c.entryStamp[e.id] == c.entryEpoch {
					continue
				}
				if visit(e.x, e.hasPreds, e.data) {
					c.entryStamp[e.id] = c.entryEpoch
				}
			}
		}
		if st.dslash == nil {
			return
		}
		st = st.dslash // epsilon into the skip state
	}
}
