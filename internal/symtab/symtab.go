// Package symtab implements the interned symbol table shared by the matching
// stack: a bijection between XML element names and small integer symbols
// (Sym). Comparing two Syms is a single uint32 comparison, so every layer of
// the publication hot path — subscription-tree matching, the advertisement
// automaton, covering checks — compares symbols instead of strings, the same
// device FPGA XML filters use to keep their match pipelines narrow.
//
// A small range of symbols is reserved for sentinels: None (the zero Sym,
// never assigned to a name), Wildcard (the XPath "*" test), and Attr (a
// marker for encoding attribute tokens into path alphabets). Intern maps "*"
// to Wildcard, so interned expressions and interned publication paths agree
// on the wildcard without special cases.
//
// # Concurrency
//
// A Table is safe for concurrent use. The read path (Lookup, LookupBytes,
// NameOf, Len) is lock-free and allocation-free: names are found through a
// hash trie whose slots are atomic pointers, and symbols are resolved
// through fixed-size chunks of names. Intern is lock-free for names already
// present — the overwhelmingly common case once a workload's element
// alphabet has been seen — and takes the writer mutex only to install a new
// name, which adds one leaf to the trie (and at times an inner node) and
// one name to a chunk: its cost does not grow with the table. Symbols are
// never reassigned or removed; a Sym handed out once names the same string
// forever.
package symtab

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Sym is an interned element name. The zero value is None, which no name
// ever interns to; concrete names start at FirstDynamic.
type Sym uint32

const (
	// None is the invalid symbol. Lookup of an unknown name reports it, and
	// path converters may use it for elements outside the interned alphabet:
	// no concrete step symbol ever equals None, so only wildcards match it.
	None Sym = 0
	// Wildcard is the reserved symbol of the XPath "*" name test.
	Wildcard Sym = 1
	// Attr is the reserved marker for attribute tokens in encoded path
	// alphabets (e.g. interleaving "@name" tokens with element symbols).
	Attr Sym = 2
	// FirstDynamic is the first symbol assigned to an ordinary name;
	// symbols in [Attr+1, FirstDynamic) are reserved for future sentinels.
	FirstDynamic Sym = 8
)

// WildcardName is the name the Wildcard sentinel interns.
const WildcardName = "*"

// AttrName is the name the Attr sentinel interns.
const AttrName = "@"

// The trie consumes a name's hash trieBits at a time from the low end, so
// it is at most 64/trieBits levels deep.
const (
	trieBits = 4
	fanout   = 1 << trieBits
)

// chunkLen is the number of names per chunk of the symbol-to-name index.
const chunkLen = 256

// node is a trie slot's content: an inner node (kids set) that routes on
// the next trieBits of the hash, or a leaf holding one name. Leaves whose
// hashes are equal in every bit share a slot as a list through next. A
// published leaf is never modified: a writer stores a new node into a slot.
type node struct {
	kids *[fanout]atomic.Pointer[node]

	hash uint64
	name string
	sym  Sym
	next *node
}

// nameChunk holds the names of chunkLen consecutive symbols.
type nameChunk [chunkLen]string

// Table is an interning symbol table. The zero value is not usable; call
// NewTable (or use the package-level Default table).
type Table struct {
	mu sync.Mutex // serialises writers

	// seed keys the hash, so the trie's shape cannot be chosen from
	// outside; mask keeps every hash bit except in tests that force
	// collisions.
	seed, mask uint64
	root       [fanout]atomic.Pointer[node]

	// next is the next symbol to assign, so symbols below it have a name
	// in chunks. A writer stores a name, then chunks if it grew, then next,
	// so a reader that loads next first finds every name below it.
	next   atomic.Uint32
	chunks atomic.Pointer[[]*nameChunk]
	named  atomic.Int32 // non-empty names, sentinels included (Len)
}

// NewTable returns a table holding only the reserved sentinels.
func NewTable() *Table { return newTable(rand.Uint64(), ^uint64(0)) }

// newTable is NewTable with a chosen hash seed and mask.
func newTable(seed, mask uint64) *Table {
	t := &Table{seed: seed, mask: mask}
	chunks := []*nameChunk{new(nameChunk)}
	chunks[0][Wildcard], chunks[0][Attr] = WildcardName, AttrName
	t.chunks.Store(&chunks)
	t.next.Store(uint32(FirstDynamic))
	t.add(hashOf(seed, WildcardName)&mask, WildcardName, Wildcard)
	t.add(hashOf(seed, AttrName)&mask, AttrName, Attr)
	return t
}

// hashOf hashes a name under seed, eight bytes per multiply, then
// finalises so that every bit the trie consumes depends on every byte. A
// name's last bytes are read as one word that may overlap the word before
// it, or as two overlapping halves; the length is hashed in, so the overlap
// loses nothing.
func hashOf[S string | []byte](seed uint64, s S) uint64 {
	const k = 0x9e3779b97f4a7c15
	n := len(s)
	h := seed ^ uint64(n)*k
	switch {
	case n >= 8:
		for t := s; len(t) > 8; t = t[8:] {
			h = (h ^ word(t)) * k
			h ^= h >> 29
		}
		h ^= word(s[n-8:])
	case n >= 4:
		h ^= uint64(half(s)) | uint64(half(s[n-4:]))<<32
	case n > 0:
		h ^= uint64(s[0]) | uint64(s[n/2])<<8 | uint64(s[n-1])<<16
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// word reads s's first eight bytes, little-endian.
func word[S string | []byte](s S) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// half reads s's first four bytes, little-endian.
func half[S string | []byte](s S) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// leaves returns the list of leaves whose hash is h, or nil.
func (t *Table) leaves(h uint64) *node {
	slots := &t.root
	for shift := 0; ; shift += trieBits {
		n := slots[h>>shift&(fanout-1)].Load()
		switch {
		case n == nil:
			return nil
		case n.kids != nil:
			slots = n.kids
		case n.hash != h:
			return nil
		default:
			return n
		}
	}
}

// find returns the symbol of name, whose hash is h.
func (t *Table) find(h uint64, name string) (Sym, bool) {
	for n := t.leaves(h); n != nil; n = n.next {
		if n.name == name {
			return n.sym, true
		}
	}
	return None, false
}

// Intern returns the symbol for name, assigning a fresh one on first sight.
// "*" always interns to Wildcard and "@" to Attr.
func (t *Table) Intern(name string) Sym {
	h := hashOf(t.seed, name) & t.mask
	if sym, ok := t.find(h, name); ok {
		return sym
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sym, ok := t.find(h, name); ok { // re-check under the writer lock
		return sym
	}
	sym := Sym(t.next.Load())
	if sym/chunkLen == Sym(len(*t.chunks.Load())) {
		// Readers index only below next, so the append may write past
		// their length in place.
		grown := append(*t.chunks.Load(), new(nameChunk))
		t.chunks.Store(&grown)
	}
	(*t.chunks.Load())[sym/chunkLen][sym%chunkLen] = name
	t.next.Store(uint32(sym) + 1)
	t.add(h, name, sym)
	return sym
}

// add links a leaf for name, whose hash is h, into the trie. The caller
// holds the writer lock or owns the table, and has already stored the name
// under sym.
func (t *Table) add(h uint64, name string, sym Sym) {
	leaf := &node{hash: h, name: name, sym: sym}
	slots := &t.root
	for shift := 0; ; shift += trieBits {
		slot := &slots[h>>shift&(fanout-1)]
		n := slot.Load()
		if n != nil && n.kids != nil {
			slots = n.kids
			continue
		}
		if n != nil && n.hash != h {
			// Two hashes share this slot: the resident leaf moves one
			// level down, where the walk goes on. Hashes that differ part
			// at the last level at the latest.
			kids := new([fanout]atomic.Pointer[node])
			kids[n.hash>>(shift+trieBits)&(fanout-1)].Store(n)
			slot.Store(&node{kids: kids})
			slots = kids
			continue
		}
		leaf.next = n
		slot.Store(leaf)
		if name != "" {
			t.named.Add(1)
		}
		return
	}
}

// Lookup returns the symbol for name without interning it; ok is false (and
// the symbol None) when the name has never been interned.
func (t *Table) Lookup(name string) (sym Sym, ok bool) {
	return t.find(hashOf(t.seed, name)&t.mask, name)
}

// LookupBytes is Lookup for a name held as a byte slice, without interning
// and without allocating: the string(b) conversion inside a comparison is
// recognised by the compiler and performs no copy. Streaming scanners use it
// to convert element names in place; unknown names report None, which only
// wildcard steps match — safe because any name a concrete step could match
// is already interned by XPE.Syms.
func (t *Table) LookupBytes(b []byte) (sym Sym, ok bool) {
	for n := t.leaves(hashOf(t.seed, b) & t.mask); n != nil; n = n.next {
		if n.name == string(b) {
			return n.sym, true
		}
	}
	return None, false
}

// NameOf returns the name a symbol was interned from ("" for None, unknown
// symbols, and unassigned reserved slots).
func (t *Table) NameOf(sym Sym) string {
	if uint32(sym) >= t.next.Load() {
		return ""
	}
	return (*t.chunks.Load())[sym/chunkLen][sym%chunkLen]
}

// Len returns the number of interned names, sentinels included.
func (t *Table) Len() int { return int(t.named.Load()) }

// InternPath interns every element of a root-to-leaf path.
func (t *Table) InternPath(path []string) []Sym {
	return t.AppendInternPath(make([]Sym, 0, len(path)), path)
}

// AppendInternPath appends the interned symbols of path to dst and returns
// the extended slice, so a caller with room on its stack converts a path
// without allocating.
func (t *Table) AppendInternPath(dst []Sym, path []string) []Sym {
	for _, name := range path {
		dst = append(dst, t.Intern(name))
	}
	return dst
}

// LookupPath converts a path without growing the table; elements outside the
// interned alphabet become None (which only wildcards match).
func (t *Table) LookupPath(path []string) []Sym {
	out := make([]Sym, len(path))
	for i, name := range path {
		out[i], _ = t.Lookup(name) // missing -> None
	}
	return out
}

// Default is the process-wide table the matching stack shares: expressions,
// advertisements, and publications interned against the same table agree on
// every symbol.
var Default = NewTable()

// Intern interns name in the Default table.
func Intern(name string) Sym { return Default.Intern(name) }

// Lookup looks name up in the Default table.
func Lookup(name string) (Sym, bool) { return Default.Lookup(name) }

// LookupBytes looks a byte-slice name up in the Default table.
func LookupBytes(b []byte) (Sym, bool) { return Default.LookupBytes(b) }

// NameOf resolves a symbol against the Default table.
func NameOf(sym Sym) string { return Default.NameOf(sym) }

// InternPath interns a path against the Default table.
func InternPath(path []string) []Sym { return Default.InternPath(path) }

// AppendInternPath interns a path against the Default table into dst.
func AppendInternPath(dst []Sym, path []string) []Sym { return Default.AppendInternPath(dst, path) }

// LookupPath converts a path against the Default table without growing it.
func LookupPath(path []string) []Sym { return Default.LookupPath(path) }
