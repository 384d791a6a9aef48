// Package advert implements XML routing advertisements: absolute XPath-like
// path expressions derived from a publisher's DTD, possibly containing
// one-or-more "(...)+" recursive patterns. It provides the paper's
// subscription/advertisement matching algorithms (AbsExprAndAdv,
// RelExprAndAdv, DesExprAndAdv and the recursive variants), a general
// automaton-based matcher used both as production path for recursive
// advertisements and as a cross-validation oracle, and the DTD-to-
// advertisement generation algorithm.
//
// An advertisement describes the set of root-to-leaf paths (publications) a
// producer may emit. The "+" pattern syntax is internal to the system — it
// is not XPath and is never exposed to clients, exactly as in the paper.
package advert

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/xpath"
)

// Item is one component of an advertisement: either a single element test
// (Name != "", Group == nil) or a one-or-more group over a nested sequence
// (Name == "", Group != nil).
type Item struct {
	Name  string
	Group []Item
}

// IsGroup reports whether the item is a "(...)+" group.
func (it Item) IsGroup() bool { return it.Name == "" }

// Sym returns a symbol item.
func Sym(name string) Item { return Item{Name: name} }

// Rep returns a one-or-more group item over the given sequence.
func Rep(items ...Item) Item { return Item{Group: items} }

// Class classifies an advertisement per the paper's taxonomy.
type Class uint8

const (
	// NonRecursive advertisements contain no group.
	NonRecursive Class = iota
	// SimpleRecursive advertisements contain exactly one group, not nested.
	SimpleRecursive
	// SeriesRecursive advertisements contain two or more groups in
	// sequence, none nested.
	SeriesRecursive
	// EmbeddedRecursive advertisements contain a group nested inside
	// another group.
	EmbeddedRecursive
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case NonRecursive:
		return "non-recursive"
	case SimpleRecursive:
		return "simple-recursive"
	case SeriesRecursive:
		return "series-recursive"
	default:
		return "embedded-recursive"
	}
}

// Advertisement is an absolute path pattern over element names and
// wildcards, with optional one-or-more groups.
//
// The package constructors (NewAdvertisement, FromPath, Parse, Clone, and
// the DTD generator) compile the matching automaton EAGERLY, which interns
// the advertisement's element names at construction — control-plane time —
// so the publish-path matchers never grow the shared symbol table (see
// MatchesPath). A hand-built literal (&Advertisement{Items: ...}) still
// works: its automaton is compiled atomically on first match. Either way an
// Advertisement must be treated as immutable once constructed.
type Advertisement struct {
	Items []Item

	nfaCached  atomic.Pointer[advNFA]
	flatCached atomic.Pointer[[]string]
}

// NewAdvertisement builds an advertisement from items.
func NewAdvertisement(items ...Item) *Advertisement {
	return compiled(&Advertisement{Items: items})
}

// FromPath builds a non-recursive advertisement from element names.
func FromPath(names ...string) *Advertisement {
	items := make([]Item, len(names))
	for i, n := range names {
		items[i] = Sym(n)
	}
	return compiled(&Advertisement{Items: items})
}

// compiled eagerly builds the advertisement's automaton and returns it.
func compiled(a *Advertisement) *Advertisement {
	a.nfaCached.Store(a.compileNFA())
	return a
}

// Classify returns the advertisement's class.
func (a *Advertisement) Classify() Class {
	top, nested := countGroups(a.Items, false)
	switch {
	case nested:
		return EmbeddedRecursive
	case top == 0:
		return NonRecursive
	case top == 1:
		return SimpleRecursive
	default:
		return SeriesRecursive
	}
}

// countGroups counts groups at any depth of seq; top is the total group
// count, nested reports whether any group occurs inside another.
func countGroups(seq []Item, inGroup bool) (total int, nested bool) {
	for _, it := range seq {
		if !it.IsGroup() {
			continue
		}
		total++
		if inGroup {
			nested = true
		}
		t, n := countGroups(it.Group, true)
		total += t
		if n {
			nested = true
		}
	}
	return total, nested
}

// IsRecursive reports whether the advertisement contains any group.
func (a *Advertisement) IsRecursive() bool { return a.Classify() != NonRecursive }

// FlatNames returns the element tests of a non-recursive advertisement. It
// panics if the advertisement is recursive; callers dispatch on Classify.
// The slice is built on first use and shared by every later call (Overlaps
// runs on it without allocating), so callers must not modify it.
func (a *Advertisement) FlatNames() []string {
	if names := a.flatCached.Load(); names != nil {
		return *names
	}
	names := make([]string, len(a.Items))
	for i, it := range a.Items {
		if it.IsGroup() {
			panic("advert: FlatNames on recursive advertisement " + a.String())
		}
		names[i] = it.Name
	}
	// Racing first calls build equal slices; whichever is stored is shared.
	a.flatCached.Store(&names)
	return names
}

// MinLen returns the length of the shortest expansion (each group expanded
// exactly once).
func (a *Advertisement) MinLen() int { return minLen(a.Items) }

func minLen(seq []Item) int {
	n := 0
	for _, it := range seq {
		if it.IsGroup() {
			n += minLen(it.Group)
		} else {
			n++
		}
	}
	return n
}

// String renders the advertisement in the paper's notation, e.g.
// "/a/*(/e/d)+/c". The result round-trips through Parse.
func (a *Advertisement) String() string {
	var b strings.Builder
	writeItems(&b, a.Items)
	return b.String()
}

func writeItems(b *strings.Builder, seq []Item) {
	for _, it := range seq {
		if it.IsGroup() {
			b.WriteByte('(')
			writeItems(b, it.Group)
			b.WriteString(")+")
		} else {
			b.WriteByte('/')
			b.WriteString(it.Name)
		}
	}
}

// Key returns a canonical map key for the advertisement.
func (a *Advertisement) Key() string { return a.String() }

// Equal reports structural equality.
func (a *Advertisement) Equal(b *Advertisement) bool {
	return itemsEqual(a.Items, b.Items)
}

func itemsEqual(x, y []Item) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].Name != y[i].Name {
			return false
		}
		if (x[i].Group == nil) != (y[i].Group == nil) {
			return false
		}
		if x[i].Group != nil && !itemsEqual(x[i].Group, y[i].Group) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (a *Advertisement) Clone() *Advertisement {
	return compiled(&Advertisement{Items: cloneItems(a.Items)})
}

func cloneItems(seq []Item) []Item {
	out := make([]Item, len(seq))
	for i, it := range seq {
		out[i] = Item{Name: it.Name}
		if it.Group != nil {
			out[i].Group = cloneItems(it.Group)
		}
	}
	return out
}

// ToXPE converts a non-recursive advertisement to the equivalent absolute
// simple XPE (advertisements have the same format as absolute simple
// subscriptions, which is what makes advertisement covering reuse the
// subscription covering algorithms).
func (a *Advertisement) ToXPE() *xpath.XPE {
	names := a.FlatNames()
	steps := make([]xpath.Step, len(names))
	for i, n := range names {
		steps[i] = xpath.Step{Axis: xpath.Child, Name: n}
	}
	return &xpath.XPE{Steps: steps}
}

// Parse parses the paper's advertisement notation: a leading-"/" path whose
// components are element names or "*", with "(...)+" groups, e.g.
// "/a/*/c(/e/d)+/*/c/e" or "/x(/a(/b)+/c)+/y".
func Parse(input string) (*Advertisement, error) {
	p := &advParser{src: input}
	items, err := p.sequence(false)
	if err != nil {
		return nil, fmt.Errorf("advert: parse %q: %w", input, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("advert: parse %q: trailing input at offset %d", input, p.pos)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("advert: parse %q: empty advertisement", input)
	}
	return compiled(&Advertisement{Items: items}), nil
}

// MustParse is Parse for statically known advertisements; it panics on error.
func MustParse(input string) *Advertisement {
	a, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return a
}

type advParser struct {
	src string
	pos int
}

func (p *advParser) sequence(inGroup bool) ([]Item, error) {
	var items []Item
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '/':
			p.pos++
			start := p.pos
			for p.pos < len(p.src) && p.src[p.pos] != '/' && p.src[p.pos] != '(' && p.src[p.pos] != ')' {
				p.pos++
			}
			name := p.src[start:p.pos]
			if name == "" {
				return nil, fmt.Errorf("empty element name at offset %d", start)
			}
			items = append(items, Sym(name))
		case '(':
			p.pos++
			inner, err := p.sequence(true)
			if err != nil {
				return nil, err
			}
			if len(inner) == 0 {
				return nil, fmt.Errorf("empty group at offset %d", p.pos)
			}
			if !strings.HasPrefix(p.src[p.pos:], ")+") {
				return nil, fmt.Errorf("group not closed with \")+\" at offset %d", p.pos)
			}
			p.pos += 2
			items = append(items, Item{Group: inner})
		case ')':
			if !inGroup {
				return nil, fmt.Errorf("unbalanced ')' at offset %d", p.pos)
			}
			return items, nil
		default:
			return nil, fmt.Errorf("unexpected %q at offset %d", p.src[p.pos], p.pos)
		}
	}
	if inGroup {
		return nil, fmt.Errorf("unterminated group")
	}
	return items, nil
}
