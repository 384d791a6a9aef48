// Package pmatch implements a YFilter-style shared path-matching automaton:
// every XPath expression (XPE) of a routing snapshot is compiled into ONE
// nondeterministic finite automaton over the interned symbol alphabet
// (symtab.Sym), so matching a publication path against N subscriptions costs
// one automaton run instead of N per-expression evaluations.
//
// Structure sharing is what makes the shared automaton fast: expressions
// with a common step prefix share the states and transitions of that prefix
// ("/a/b/c" and "/a/b/d" diverge only at the last edge), so the work per
// consumed path element is bounded by the number of DISTINCT live prefixes,
// not by the number of subscriptions. The construction follows the classic
// XML-filtering automata (YFilter; the FPGA filtering architecture in
// PAPERS.md hardware-parallelises the same design):
//
//   - a "/name" step is a transition labelled with the step's interned
//     symbol,
//   - a "/*" step is a wildcard transition (matches every element,
//     including elements outside the interned alphabet),
//   - a "//" step becomes a skip state with a self-loop on any element,
//     entered by an epsilon edge (resolved at activation time, never at
//     runtime) and left by the step's name transition — zero-or-more skipped
//     elements,
//   - a relative expression is compiled as if its first step used "//":
//     "a/b" may begin matching at any path position, which is exactly the
//     language of "//a/b" under the system's prefix-match semantics.
//
// Acceptance mirrors XPE.MatchesSymPath: an expression selects a node as
// soon as all its steps are consumed, so accept states report their entries
// at EVERY path position reached, not only at the end of the path.
//
// Attribute predicates are not compiled into the automaton: an entry whose
// expression carries predicates is structurally matched first and then
// verified with XPE.MatchesSymPathAttrs as a post-filter, exactly once per
// path. This keeps the automaton alphabet small while preserving
// MatchesSymPathAttrs semantics bit for bit.
//
// The automaton has one execution engine, Cursor (stream.go), which runs it
// over a document's element open/close events. Match runs it over a path,
// the one-branch case of that event stream.
//
// Transitions are stored flat, not hashed, as in YFilter and the FPGA
// filter: a state's transitions on concrete symbols are one array sorted by
// symbol and binary-searched. A state
// holds no hash table, and copying a state copies one array.
//
// # Persistence
//
// The automaton is a trie of states — every state but the start state hangs
// off exactly one parent — maintained by a single writer, Table. Add, Set
// and Remove change one expression's path from the start state to its
// accept state; Seal publishes the result as an immutable Automaton. A state
// that an earlier sealed version can reach is never written: the writer
// copies it (and, transitively, its ancestors) first, so a change costs
// O(expression length) copies and every untouched state is shared between
// versions. States created since the last Seal are the writer's own and are
// mutated in place, so a bulk load — Builder, or a Table filled before its
// first Seal — costs exactly a one-shot build. Remove prunes the states left
// with no entry and no edge, so after any sequence of operations the trie
// has the shape a fresh build over the live entries would have.
//
// # Concurrency
//
// An Automaton is immutable and safe for any number of concurrent Match
// calls and Cursors. Cursors (active state sets and epoch stamps, indexed
// by state and entry ids) are pooled per Table and shared by all of its
// versions, so steady-state matching allocates nothing, even across
// versions. Ids are unique within one version and recycled by the writer, so
// the stamp tables stay bounded by the largest table the writer has held.
// Table and Builder are not safe for concurrent use.
//
// Symbols are interned against symtab.Default (via XPE.Syms); an automaton
// must be matched against paths interned into the same table.
package pmatch

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// state is one automaton state. next holds the transitions on concrete
// interned symbols as a flat array sorted by symbol (see step); wild is the
// target of the wildcard transition (taken on every element); dslash is the
// skip state entered by epsilon when this state activates (for a following
// "//" step). Skip states carry selfLoop=true: once active they stay active,
// consuming any element. id indexes the per-run stamp tables; gen is the
// writer generation that created the state — only that generation may
// mutate it.
type state struct {
	id       int32
	gen      uint32
	selfLoop bool
	next     []edge
	wild     *state
	dslash   *state
	// accept lists the entries whose final step lands on this state, by
	// value: a run reads them without another pointer hop.
	accept []entry
}

// edge is one symbol-labelled transition.
type edge struct {
	sym symtab.Sym
	to  *state
}

// step returns the target of st's transition on sym, or nil.
func (st *state) step(sym symtab.Sym) *state {
	if i, ok := st.find(sym); ok {
		return st.next[i].to
	}
	return nil
}

// find returns the index of st's edge on sym, or where it would be
// inserted, and whether it exists. The binary search is written out because
// slices.BinarySearchFunc calls its comparison through a function value on
// every probe, which made BenchmarkAutomatonMatch about 55% slower on a
// 2-core amd64 host.
func (st *state) find(sym symtab.Sym) (int, bool) {
	lo, hi := 0, len(st.next)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if st.next[m].sym < sym {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(st.next) && st.next[lo].sym == sym
}

// entry is one compiled expression with its caller payload.
type entry struct {
	id       int32
	hasPreds bool
	x        *xpath.XPE
	data     any
}

// Automaton is one immutable version of a shared matcher. Build one with a
// Builder, or seal successive versions from a Table.
type Automaton struct {
	root  *state
	stats Stats
	// stateIDs and entryIDs bound the ids reachable in this version; the
	// stamp tables of a run must cover them.
	stateIDs, entryIDs int32
	pools              *pools
}

// pools holds the cursors of every version sealed from one Table.
type pools struct {
	cursors sync.Pool // *Cursor (see stream.go)
}

func newPools() *pools {
	p := &pools{}
	p.cursors.New = func() any { return &Cursor{offs: make([]int32, 0, 16)} }
	return p
}

// Stats describes an automaton's size for observability.
type Stats struct {
	// States is the number of automaton states (including the start state
	// and "//" skip states).
	States int
	// Edges counts symbol-labelled transitions plus wildcard transitions,
	// self-loops, and epsilon edges into skip states.
	Edges int
	// Entries is the number of expressions compiled in.
	Entries int
	// AcceptStates is the number of states carrying at least one entry.
	AcceptStates int
}

// Handle names one live entry of a Table, for Set and Remove. The zero
// Handle names no entry; Set and Remove ignore it. A handle is dead once its
// entry is removed — the writer recycles entry ids.
type Handle struct {
	ref int32 // entry id + 1
}

// Table is the single writer of a persistent automaton: Add, Set and Remove
// edit the working version, Seal publishes it as an immutable Automaton
// (see the package comment). The zero value is not usable; call NewTable.
type Table struct {
	root *state
	gen  uint32
	// exprs holds each live entry's expression by entry id — the path to
	// its accept state; nil marks a free id.
	exprs       []*xpath.XPE
	freeEntries []int32
	freeStates  []int32
	stateIDs    int32 // state id high-water mark
	stats       Stats
	// sealed is the version the last Seal returned, nil once a write
	// follows it.
	sealed *Automaton
	path   []pathStep // scratch: the path the last reach walked
	pools  *pools
}

// pathStep is one state on a start-to-accept path and how it hangs off the
// previous one.
type pathStep struct {
	s    *state
	kind uint8
	sym  symtab.Sym // for viaNext
}

const (
	viaNext uint8 = iota
	viaWild
	viaSkip
)

// NewTable returns a writer holding only the start state.
func NewTable() *Table {
	t := &Table{gen: 1, pools: newPools()}
	t.root = t.newState(false)
	return t
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.stats.Entries }

// Add compiles one expression into the working version and associates data
// with it: every Match over a path the expression matches will visit data.
// The same expression may be added multiple times with different payloads
// (each is reported). Expressions with zero steps match nothing; they are
// ignored and yield the zero Handle. The expression must not be mutated
// afterwards (its interned step symbols are cached, see XPE.Syms).
func (t *Table) Add(x *xpath.XPE, data any) Handle {
	if x == nil || x.Len() == 0 {
		return Handle{}
	}
	acc := t.reach(x)
	var id int32
	if n := len(t.freeEntries); n > 0 {
		id = t.freeEntries[n-1]
		t.freeEntries = t.freeEntries[:n-1]
	} else {
		id = int32(len(t.exprs))
		t.exprs = append(t.exprs, nil)
	}
	t.exprs[id] = x
	if len(acc.accept) == 0 {
		t.stats.AcceptStates++
		// An edge broker's accept state typically holds two entries: the
		// PRT node's and the client filter's.
		acc.accept = make([]entry, 0, 2)
	}
	acc.accept = append(acc.accept, entry{id: id, hasPreds: x.HasPredicates(), x: x, data: data})
	t.stats.Entries++
	t.sealed = nil
	return Handle{ref: id + 1}
}

// Set replaces the payload of a live entry.
func (t *Table) Set(h Handle, data any) {
	id, x := t.lookup(h)
	if x == nil {
		return
	}
	acc := t.reach(x)
	for i := range acc.accept {
		if acc.accept[i].id == id {
			acc.accept[i].data = data
			break
		}
	}
	t.sealed = nil
}

// Remove deletes a live entry and prunes the states it leaves with no entry
// and no edge.
func (t *Table) Remove(h Handle) {
	id, x := t.lookup(h)
	if x == nil {
		return
	}
	acc := t.reach(x)
	for i := range acc.accept {
		if acc.accept[i].id == id {
			last := len(acc.accept) - 1
			acc.accept[i] = acc.accept[last]
			acc.accept[last] = entry{}
			acc.accept = acc.accept[:last]
			break
		}
	}
	if len(acc.accept) == 0 {
		acc.accept = nil
		t.stats.AcceptStates--
	}
	t.stats.Entries--
	t.exprs[id] = nil
	t.freeEntries = append(t.freeEntries, id)
	t.prune()
	t.sealed = nil
}

// Reset drops every entry: the working version becomes the empty automaton.
// Versions sealed earlier are unaffected.
func (t *Table) Reset() {
	*t = Table{gen: t.gen, path: t.path[:0], pools: t.pools}
	t.root = t.newState(false)
}

// Seal publishes the working version. Later writes never reach the returned
// Automaton; sealing again without writes in between returns it unchanged.
func (t *Table) Seal() *Automaton {
	if t.sealed == nil {
		t.sealed = &Automaton{
			root:     t.root,
			stats:    t.stats,
			stateIDs: t.stateIDs,
			entryIDs: int32(len(t.exprs)),
			pools:    t.pools,
		}
		// Every state reachable now belongs to the sealed version; the next
		// write copies instead of mutating.
		t.gen++
	}
	return t.sealed
}

// lookup resolves a handle to its entry id and expression (nil when the
// handle names no live entry).
func (t *Table) lookup(h Handle) (int32, *xpath.XPE) {
	if h.ref <= 0 || int(h.ref) > len(t.exprs) {
		return 0, nil
	}
	return h.ref - 1, t.exprs[h.ref-1]
}

func (t *Table) newState(selfLoop bool) *state {
	id := t.stateIDs
	if n := len(t.freeStates); n > 0 {
		id = t.freeStates[n-1]
		t.freeStates = t.freeStates[:n-1]
	} else {
		t.stateIDs++
	}
	t.stats.States++
	return &state{id: id, gen: t.gen, selfLoop: selfLoop}
}

// own returns a state the writer may mutate in s's place: s itself when the
// current generation created it, else a copy with the same id (the copy
// replaces s in this version, so the id stays unique within it).
func (t *Table) own(s *state) *state {
	if s.gen == t.gen {
		return s
	}
	c := &state{id: s.id, gen: t.gen, selfLoop: s.selfLoop, wild: s.wild, dslash: s.dslash}
	if len(s.next) > 0 {
		c.next = slices.Clone(s.next)
	}
	if len(s.accept) > 0 {
		c.accept = append([]entry(nil), s.accept...)
	}
	return c
}

// reach makes every state on x's path writable — creating missing states,
// copying shared ones — records the path in t.path, and returns the accept
// state. All descendant steps leaving one state share its skip state, so
// "//a" and "//b" from a common prefix share the self-loop. Wildcard steps
// use the dedicated wildcard transition so that a concrete path element
// named "*" is still only matched by wildcard steps (mirroring xpath's
// evaluator).
func (t *Table) reach(x *xpath.XPE) *state {
	t.root = t.own(t.root)
	cur := t.root
	t.path = append(t.path[:0], pathStep{s: cur})
	syms := x.Syms()
	for i := range x.Steps {
		if x.Skips(i) {
			d := cur.dslash
			if d == nil {
				d = t.newState(true)
				t.stats.Edges += 2 // the epsilon edge and the self-loop
			} else {
				d = t.own(d)
			}
			cur.dslash = d
			cur = d
			t.path = append(t.path, pathStep{s: cur, kind: viaSkip})
		}
		sym := syms[i]
		if sym == symtab.Wildcard {
			w := cur.wild
			if w == nil {
				w = t.newState(false)
				t.stats.Edges++
			} else {
				w = t.own(w)
			}
			cur.wild = w
			cur = w
			t.path = append(t.path, pathStep{s: cur, kind: viaWild})
			continue
		}
		var nx *state
		if j, ok := cur.find(sym); !ok {
			nx = t.newState(false)
			t.stats.Edges++
			cur.next = slices.Insert(cur.next, j, edge{sym: sym, to: nx})
		} else if nx = cur.next[j].to; nx.gen != t.gen {
			nx = t.own(nx)
			cur.next[j].to = nx
		}
		cur = nx
		t.path = append(t.path, pathStep{s: cur, kind: viaNext, sym: sym})
	}
	return cur
}

// prune walks the last reached path upward, unlinking every state left
// with no entry and no outgoing edge. The rest of the trie is untouched, so
// its invariant — every state leads to an entry — holds again afterwards.
func (t *Table) prune() {
	for i := len(t.path) - 1; i > 0; i-- {
		s := t.path[i].s
		if len(s.accept) > 0 || len(s.next) > 0 || s.wild != nil || s.dslash != nil {
			return
		}
		parent := t.path[i-1].s
		switch t.path[i].kind {
		case viaSkip:
			parent.dslash = nil
			t.stats.Edges -= 2
		case viaWild:
			parent.wild = nil
			t.stats.Edges--
		default:
			// Delete zeroes the vacated slot, so the array does not pin the
			// pruned state.
			j, _ := parent.find(t.path[i].sym)
			parent.next = slices.Delete(parent.next, j, j+1)
			if len(parent.next) == 0 {
				parent.next = nil
			}
			t.stats.Edges--
		}
		t.stats.States--
		t.freeStates = append(t.freeStates, s.id)
	}
}

// Builder accumulates expressions and compiles the shared automaton in one
// shot: a Table sealed once. The zero value is not usable; call NewBuilder.
//
// A Builder is single-use and single-goroutine: the busy/done guards turn
// concurrent Add/Build calls and use after Build into panics instead of
// silent corruption.
type Builder struct {
	t    *Table
	busy atomic.Int32
	done bool
}

// begin enters a guarded builder operation; end leaves it.
func (b *Builder) begin() {
	if !b.busy.CompareAndSwap(0, 1) {
		panic("pmatch: Builder used concurrently")
	}
	if b.done {
		b.busy.Store(0)
		panic("pmatch: Builder used after Build")
	}
}

func (b *Builder) end() { b.busy.Store(0) }

// NewBuilder returns an empty builder holding only the start state.
func NewBuilder() *Builder {
	return &Builder{t: NewTable()}
}

// Len returns the number of entries added so far.
func (b *Builder) Len() int {
	if b.t == nil {
		return 0
	}
	return b.t.Len()
}

// Add compiles one expression into the automaton under construction; see
// Table.Add.
func (b *Builder) Add(x *xpath.XPE, data any) {
	b.begin()
	defer b.end()
	b.t.Add(x, data)
}

// Build finalises the automaton. The builder must not be used afterwards
// (further Add/Build calls panic).
func (b *Builder) Build() *Automaton {
	b.begin()
	defer b.end()
	b.done = true
	a := b.t.Seal()
	b.t = nil
	return a
}

// ShardedAutomaton is an alias of Automaton.
//
// Deprecated: kept only for cmd/xload, frozen with the benchmark; delete with
// the next benchmark change.
type ShardedAutomaton = Automaton

// NewShardedBuilder returns NewBuilder(); the argument is ignored.
//
// Deprecated: kept only for cmd/xload, frozen with the benchmark; delete with
// the next benchmark change.
func NewShardedBuilder(int) *Builder { return NewBuilder() }

// NumEntries returns the number of compiled expressions.
func (a *Automaton) NumEntries() int { return a.stats.Entries }

// NumStates returns the number of automaton states.
func (a *Automaton) NumStates() int { return a.stats.States }

// Stats measures the automaton (O(1): the writer keeps the counts).
func (a *Automaton) Stats() Stats { return a.stats }

// fitStamps returns a stamp table covering n ids: s itself when it is long
// enough, else a fresh zeroed one with headroom, so a growing table
// reallocates rarely. Zero never equals a live epoch, so fresh stamps are
// unvisited.
func fitStamps(s []uint32, n int32) []uint32 {
	if len(s) >= int(n) {
		return s
	}
	return make([]uint32, int(n)+int(n)/4)
}

// frontierCap sizes a fresh frontier once, so a new cursor does not grow it
// append by append: room for every state of automata up to 8k states (a
// cursor's frontier stacks every open depth's set, so it can outgrow one
// position's), a generous bound on the active set of larger ones.
func frontierCap(f []*state, n int32) []*state {
	if cap(f) > 0 {
		return f
	}
	return make([]*state, 0, min(int(n), 8192))
}

// Match runs the automaton over one interned publication path and invokes
// visit for the payload of every entry whose expression matches the path,
// with attribute predicates evaluated against attrs (attrs[i] belongs to
// path[i]; nil attrs fail any predicate — the MatchesSymPathAttrs
// contract). Each entry is visited at most once per call, in unspecified
// order. Safe for concurrent use.
//
// A path is a document with one branch, so Match is a Cursor run: one Enter
// per element. Every accept settles its entry, and an entry with predicates
// is checked once, against the whole path.
func (a *Automaton) Match(path []symtab.Sym, attrs []map[string]string, visit func(data any)) {
	if a.stats.Entries == 0 || len(path) == 0 {
		return
	}
	accept := func(x *xpath.XPE, hasPreds bool, data any) bool {
		if !hasPreds || x.MatchesSymPathAttrs(path, attrs) {
			visit(data)
		}
		return true
	}
	c := a.Cursor()
	for _, sym := range path {
		if !c.descend(sym, accept) {
			break // no live prefix can revive
		}
	}
	c.Release()
}

// consumes reports whether the state has a transition on some element. A
// state without one — typically an accept leaf — is never put on a
// frontier: it has nothing to contribute to the next position, and every
// frontier store of a pointer costs a write barrier while the GC marks.
func (st *state) consumes() bool {
	return st.selfLoop || len(st.next) > 0 || st.wild != nil
}

func clearStamps(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}
