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
// A Table is safe for concurrent use. The read path (Lookup, NameOf, Len) is
// lock-free: readers load an immutable snapshot through an atomic pointer.
// Intern is lock-free for names already present — the overwhelmingly common
// case once a workload's element alphabet has been seen — and takes the
// writer mutex only to install a new name, publishing a fresh snapshot
// copy-on-write. Symbols are never reassigned or removed; a Sym handed out
// once names the same string forever.
package symtab

import (
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

// snapshot is one immutable version of the table. names is indexed by Sym
// (sentinel and reserved slots included); byName inverts it.
type snapshot struct {
	byName map[string]Sym
	names  []string
}

// Table is an interning symbol table. The zero value is not usable; call
// NewTable (or use the package-level Default table).
type Table struct {
	mu   sync.Mutex // serialises writers
	snap atomic.Pointer[snapshot]
}

// NewTable returns a table holding only the reserved sentinels.
func NewTable() *Table {
	names := make([]string, FirstDynamic)
	names[Wildcard] = WildcardName
	names[Attr] = AttrName
	t := &Table{}
	t.snap.Store(&snapshot{
		byName: map[string]Sym{WildcardName: Wildcard, AttrName: Attr},
		names:  names,
	})
	return t
}

// Intern returns the symbol for name, assigning a fresh one on first sight.
// "*" always interns to Wildcard and "@" to Attr.
func (t *Table) Intern(name string) Sym {
	s := t.snap.Load()
	if sym, ok := s.byName[name]; ok {
		return sym
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s = t.snap.Load() // re-check under the writer lock
	if sym, ok := s.byName[name]; ok {
		return sym
	}
	sym := Sym(len(s.names))
	next := &snapshot{
		byName: make(map[string]Sym, len(s.byName)+1),
		names:  make([]string, len(s.names), len(s.names)+1),
	}
	for k, v := range s.byName {
		next.byName[k] = v
	}
	copy(next.names, s.names)
	next.byName[name] = sym
	next.names = append(next.names, name)
	t.snap.Store(next)
	return sym
}

// Lookup returns the symbol for name without interning it; ok is false (and
// the symbol None) when the name has never been interned.
func (t *Table) Lookup(name string) (sym Sym, ok bool) {
	sym, ok = t.snap.Load().byName[name]
	return sym, ok
}

// LookupBytes is Lookup for a name held as a byte slice, without interning
// and without allocating: the string(b) conversion inside a map index is
// recognised by the compiler and performs no copy. Streaming scanners use it
// to convert element names in place; unknown names report None, which only
// wildcard steps match — safe because any name a concrete step could match
// is already interned by XPE.Syms.
func (t *Table) LookupBytes(b []byte) (sym Sym, ok bool) {
	sym, ok = t.snap.Load().byName[string(b)]
	return sym, ok
}

// NameOf returns the name a symbol was interned from ("" for None, unknown
// symbols, and unassigned reserved slots).
func (t *Table) NameOf(sym Sym) string {
	s := t.snap.Load()
	if int(sym) >= len(s.names) {
		return ""
	}
	return s.names[sym]
}

// Len returns the number of interned names, sentinels included.
func (t *Table) Len() int {
	s := t.snap.Load()
	n := 2 // Wildcard, Attr
	for _, name := range s.names[FirstDynamic:] {
		if name != "" {
			n++
		}
	}
	return n
}

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
	s := t.snap.Load()
	out := make([]Sym, len(path))
	for i, name := range path {
		out[i] = s.byName[name] // missing -> None
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
