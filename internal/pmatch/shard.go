package pmatch

import (
	"sync"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// This file partitions the shared automaton into independent shards, each a
// persistent table of its own, so a publication consults only the part of
// the table its root can hit (DESIGN.md §5g). The partition key is the
// expression's ROOT symbol:
//
//   - an ANCHORED expression — absolute, first step on the child axis with
//     a concrete (non-wildcard) name — can only match paths whose first
//     element is that name, so it lives in shard hash(root)%N and is
//     consulted only for publications rooted there;
//   - everything else (relative expressions, leading "//", leading "/*")
//     may begin matching anywhere and goes to one extra WILD shard that
//     every publication consults.
//
// A path therefore runs against exactly two automatons (its root's shard
// plus the wild shard), and because every expression is placed in exactly
// one shard the union of the two runs visits each entry at most once — the
// per-run dedup of Automaton.Match needs no cross-shard counterpart.
//
// N=1 is special-cased to a single slot holding every expression: it is
// byte-for-byte the pre-sharding monolithic automaton and serves as the
// ablation baseline (-shards=1).

// ShardIndex returns the slot an expression belongs to in an N-shard
// partition: [0,N) for anchored expressions, N (the wild slot) otherwise.
// With n <= 1 everything shares slot 0.
func ShardIndex(x *xpath.XPE, n int) int {
	if n <= 1 {
		return 0
	}
	if x == nil || x.Len() == 0 {
		return 0 // ignored by Builder.Add anyway
	}
	if x.Relative || x.Steps[0].Axis != xpath.Child {
		return n
	}
	root := x.Syms()[0]
	if root == symtab.Wildcard {
		return n
	}
	return PathShard(root, n)
}

// PathShard returns the anchored shard a publication path with the given
// root symbol can hit. Knuth multiplicative hashing spreads the
// sequentially-assigned interned symbols across shards.
func PathShard(root symtab.Sym, n int) int {
	if n <= 1 {
		return 0
	}
	return int((uint64(root) * 2654435761) % uint64(n))
}

// Slots returns the number of automaton slots an N-shard partition uses:
// one per anchored shard plus the wild slot, except N=1 which is a single
// monolithic slot.
func Slots(n int) int {
	if n <= 1 {
		return 1
	}
	return n + 1
}

// SlotName names a slot for metrics and status output: "0".."N-1" for the
// anchored shards, "wild" for the extra slot.
func SlotName(slot, n int) string {
	if n > 1 && slot == n {
		return "wild"
	}
	return itoa(slot)
}

// itoa avoids pulling strconv into the hot-path package for a cold helper.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ShardedAutomaton is a vector of immutable Automatons partitioned by
// ShardIndex. Like Automaton it is immutable after construction and safe
// for any number of concurrent Match/Cursor calls; successive versions
// sealed by a ShardedTable share every slot a change did not touch.
type ShardedAutomaton struct {
	n       int
	slots   []*Automaton
	entries int
	pool    *sync.Pool // *ShardedCursor, shared by every version of a table
}

// NewSharded assembles a sharded automaton from per-slot automatons. The
// slice must have Slots(n) elements (anchored shards first, wild slot
// last), each built with expressions whose ShardIndex equals the slot;
// violating the placement contract loses the at-most-once visit guarantee.
func NewSharded(n int, slots []*Automaton) *ShardedAutomaton {
	return newSharded(n, slots, newCursorPool())
}

func newSharded(n int, slots []*Automaton, pool *sync.Pool) *ShardedAutomaton {
	if n < 1 {
		n = 1
	}
	if len(slots) != Slots(n) {
		panic("pmatch: NewSharded slot count does not match Slots(n)")
	}
	s := &ShardedAutomaton{n: n, slots: slots, pool: pool}
	for _, a := range slots {
		if a == nil {
			panic("pmatch: NewSharded nil slot")
		}
		s.entries += a.NumEntries()
	}
	return s
}

func newCursorPool() *sync.Pool {
	return &sync.Pool{New: func() any { return &ShardedCursor{} }}
}

// Single wraps one monolithic automaton as a 1-shard ShardedAutomaton (the
// ablation form; also how pre-sharding call sites adapt).
func Single(a *Automaton) *ShardedAutomaton {
	return NewSharded(1, []*Automaton{a})
}

// N returns the anchored shard count the partition was built with.
func (s *ShardedAutomaton) N() int { return s.n }

// SlotCount returns the number of automaton slots (Slots(N)).
func (s *ShardedAutomaton) SlotCount() int { return len(s.slots) }

// Slot returns the automaton in the given slot. Successive versions of a
// ShardedTable return the same *Automaton for a slot no write touched.
func (s *ShardedAutomaton) Slot(i int) *Automaton { return s.slots[i] }

// Entries returns the total number of expressions across all slots.
func (s *ShardedAutomaton) Entries() int { return s.entries }

// Stats sums the per-slot automaton sizes. Each slot contributes its own
// start and skip states, so States is slightly larger than a monolithic
// automaton over the same expressions would report.
func (s *ShardedAutomaton) Stats() Stats {
	var out Stats
	for _, a := range s.slots {
		st := a.Stats()
		out.States += st.States
		out.Edges += st.Edges
		out.Entries += st.Entries
		out.AcceptStates += st.AcceptStates
	}
	return out
}

// Match runs the path against the two slots it can hit — its root's
// anchored shard and the wild shard — visiting each matching entry's
// payload exactly once. Semantics are identical to a monolithic
// Automaton.Match over the union of entries. Safe for concurrent use.
func (s *ShardedAutomaton) Match(path []symtab.Sym, attrs []map[string]string, visit func(data any)) {
	if len(path) == 0 {
		return
	}
	if s.n == 1 {
		s.slots[0].Match(path, attrs, visit)
		return
	}
	s.slots[PathShard(path[0], s.n)].Match(path, attrs, visit)
	s.slots[s.n].Match(path, attrs, visit)
}

// MatchStructural is Match with attribute predicates ignored.
func (s *ShardedAutomaton) MatchStructural(path []symtab.Sym, visit func(data any)) {
	if len(path) == 0 {
		return
	}
	if s.n == 1 {
		s.slots[0].MatchStructural(path, visit)
		return
	}
	s.slots[PathShard(path[0], s.n)].MatchStructural(path, visit)
	s.slots[s.n].MatchStructural(path, visit)
}

// ShardedTable is the single writer of a sharded automaton: one Table per
// slot, entries routed by ShardIndex. Add, Set and Remove touch one slot;
// Seal reseals only the slots written since the previous Seal and shares the
// rest, so an untouched slot keeps its *Automaton across versions. Not safe
// for concurrent use.
type ShardedTable struct {
	n      int
	slots  []*Table
	sealed *ShardedAutomaton
	pool   *sync.Pool
}

// NewShardedTable returns an empty writer for an n-shard partition.
func NewShardedTable(n int) *ShardedTable {
	if n < 1 {
		n = 1
	}
	t := &ShardedTable{n: n, slots: make([]*Table, Slots(n)), pool: newCursorPool()}
	for i := range t.slots {
		t.slots[i] = NewTable()
	}
	return t
}

// Add compiles the expression into its shard's table; see Table.Add.
func (t *ShardedTable) Add(x *xpath.XPE, data any) Handle {
	slot := ShardIndex(x, t.n)
	h := t.slots[slot].Add(x, data)
	h.slot = int32(slot)
	return h
}

// Set replaces the payload of a live entry; see Table.Set.
func (t *ShardedTable) Set(h Handle, data any) { t.slots[h.slot].Set(h, data) }

// Remove deletes a live entry; see Table.Remove.
func (t *ShardedTable) Remove(h Handle) { t.slots[h.slot].Remove(h) }

// Reset drops every entry of every slot (re-seeding starts here).
func (t *ShardedTable) Reset() {
	for _, tb := range t.slots {
		tb.Reset()
	}
}

// Seal publishes the working version, resealing only the slots written
// since the previous Seal; with no writes it returns the previous version.
func (t *ShardedTable) Seal() *ShardedAutomaton {
	dirty := t.sealed == nil
	for _, tb := range t.slots {
		dirty = dirty || tb.sealed == nil
	}
	if !dirty {
		return t.sealed
	}
	slots := make([]*Automaton, len(t.slots))
	for i, tb := range t.slots {
		slots[i] = tb.Seal()
	}
	t.sealed = newSharded(t.n, slots, t.pool)
	return t.sealed
}

// ShardedBuilder routes expressions to per-slot Builders by ShardIndex: the
// one-shot whole-table form of ShardedTable, for bulk builds, tests and
// benchmarks. Like Builder it is not safe for concurrent use.
type ShardedBuilder struct {
	n  int
	bs []*Builder
}

// NewShardedBuilder returns an empty builder set for an n-shard partition.
func NewShardedBuilder(n int) *ShardedBuilder {
	if n < 1 {
		n = 1
	}
	bs := make([]*Builder, Slots(n))
	for i := range bs {
		bs[i] = NewBuilder()
	}
	return &ShardedBuilder{n: n, bs: bs}
}

// Add compiles the expression into its shard's builder.
func (sb *ShardedBuilder) Add(x *xpath.XPE, data any) {
	sb.bs[ShardIndex(x, sb.n)].Add(x, data)
}

// Len returns the number of entries added across all shards.
func (sb *ShardedBuilder) Len() int {
	total := 0
	for _, b := range sb.bs {
		total += b.Len()
	}
	return total
}

// Build finalises every slot. The builder must not be used afterwards.
func (sb *ShardedBuilder) Build() *ShardedAutomaton {
	slots := make([]*Automaton, len(sb.bs))
	for i, b := range sb.bs {
		slots[i] = b.Build()
	}
	return NewSharded(sb.n, slots)
}

// heldCursor remembers which slot's cursor a ShardedCursor acquired so a
// multi-root event stream (Enter at depth 0 after a Leave back to it)
// reuses the SAME underlying cursor per slot, preserving the at-most-once
// entry settlement of a single Cursor run.
type heldCursor struct {
	slot int
	c    *Cursor // nil when the slot's automaton has no entries
}

// ShardedCursor is the streaming execution of a ShardedAutomaton: it
// drives the wild shard's cursor and the root element's anchored-shard
// cursor in lockstep through Enter/Leave. The anchored slot is chosen at
// the first Enter (depth 0), where the document root — shared by every
// root-to-node path — determines the only anchored shard the document can
// hit. Not safe for concurrent use; distinct cursors on one automaton are.
type ShardedCursor struct {
	s     *ShardedAutomaton
	wild  *Cursor // nil when n==1 or the wild slot is empty
	cur   *Cursor // active anchored-slot cursor (nil above root or slot empty)
	held  []heldCursor
	depth int
}

// Cursor returns a pooled sharded cursor positioned at the document root.
func (s *ShardedAutomaton) Cursor() *ShardedCursor {
	c := s.pool.Get().(*ShardedCursor)
	c.s = s
	c.depth = 0
	if s.n == 1 {
		c.cur = c.acquire(0)
	} else if s.slots[s.n].NumEntries() > 0 {
		c.wild = s.slots[s.n].Cursor()
	}
	return c
}

// acquire returns the (held) cursor for a slot, creating it on first use.
// Slots whose automaton holds no entries yield nil — nothing to drive.
func (c *ShardedCursor) acquire(slot int) *Cursor {
	for _, h := range c.held {
		if h.slot == slot {
			return h.c
		}
	}
	var cur *Cursor
	if a := c.s.slots[slot]; a.NumEntries() > 0 {
		cur = a.Cursor()
	}
	c.held = append(c.held, heldCursor{slot: slot, c: cur})
	return cur
}

// Depth returns the number of open elements (Enters minus Leaves).
func (c *ShardedCursor) Depth() int { return c.depth }

// Enter descends into a child element, driving the anchored and wild
// cursors. At depth 0 (a document root) it binds the anchored cursor for
// the root's shard — re-entering the same root later resumes that shard's
// cursor, so settlement state carries across sibling roots as it would in
// a single monolithic cursor.
func (c *ShardedCursor) Enter(sym symtab.Sym, visit AcceptFunc) {
	if c.depth == 0 && c.s.n > 1 {
		c.cur = c.acquire(PathShard(sym, c.s.n))
	}
	c.depth++
	if c.cur != nil {
		c.cur.Enter(sym, visit)
	}
	if c.wild != nil {
		c.wild.Enter(sym, visit)
	}
}

// Leave closes the current element. Calling Leave at depth 0 panics.
func (c *ShardedCursor) Leave() {
	if c.depth == 0 {
		panic("pmatch: ShardedCursor.Leave below document root")
	}
	c.depth--
	if c.cur != nil {
		c.cur.Leave()
	}
	if c.wild != nil {
		c.wild.Leave()
	}
	if c.depth == 0 && c.s.n > 1 {
		c.cur = nil // next root re-binds its own anchored shard
	}
}

// Release returns the cursor (and its held per-slot cursors) to the pools.
// The cursor must not be used afterwards.
func (c *ShardedCursor) Release() {
	for i := range c.held {
		if c.held[i].c != nil {
			c.held[i].c.Release()
		}
		c.held[i] = heldCursor{}
	}
	c.held = c.held[:0]
	if c.wild != nil {
		c.wild.Release()
		c.wild = nil
	}
	c.cur = nil
	pool := c.s.pool
	c.s = nil // a pooled cursor must not pin an old version
	pool.Put(c)
}
