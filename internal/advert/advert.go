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
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// Item is one component of an advertisement under construction: either a
// single element test (Name != "", Group == nil) or a one-or-more group
// over a nested sequence (Name == "", Group != nil). Items are how callers
// spell an advertisement for NewAdvertisement; the advertisement itself
// keeps only its token string.
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
// It is stored as one token string over the shared symbol table
// (symtab.Default): an element test is its interned name (symtab.Wildcard
// for "*"), and a group is its body between symtab.GroupOpen and
// symtab.GroupClose, so "/a(/b/c)+/d" is [a ( b c ) d]. A non-recursive
// advertisement's tokens are exactly its element tests, which the paper's
// algorithms read in place. Every constructor interns the names, at
// control-plane time, so the publish-path matchers never grow the symbol
// table (see MatchesPath). A recursive advertisement's automaton is
// compiled from the tokens on its first match. An Advertisement is
// immutable once constructed and safe for concurrent use.
type Advertisement struct {
	toks      []symtab.Sym
	nfaCached atomic.Pointer[advNFA]
}

// NewAdvertisement builds an advertisement from items.
func NewAdvertisement(items ...Item) *Advertisement {
	return build(appendItems(nil, items))
}

// appendItems appends seq's tokens to dst, interning its names.
func appendItems(dst []symtab.Sym, seq []Item) []symtab.Sym {
	for _, it := range seq {
		if it.IsGroup() {
			dst = append(dst, symtab.GroupOpen)
			dst = appendItems(dst, it.Group)
			dst = append(dst, symtab.GroupClose)
		} else {
			dst = append(dst, symtab.Intern(it.Name))
		}
	}
	return dst
}

// FromPath builds a non-recursive advertisement from element names.
func FromPath(names ...string) *Advertisement {
	return build(symtab.InternPath(names))
}

// FromTokens builds an advertisement that takes ownership of toks, a token
// string in the Advertisement layout. It rejects an empty string, a group
// that is empty or unbalanced, and a token that is neither a group bracket
// nor a name symbol.
func FromTokens(toks []symtab.Sym) (*Advertisement, error) {
	if len(toks) == 0 {
		return nil, fmt.Errorf("advert: empty advertisement")
	}
	depth := 0
	for i, t := range toks {
		switch {
		case t == symtab.GroupOpen:
			depth++
		case t == symtab.GroupClose:
			if depth == 0 {
				return nil, fmt.Errorf("advert: unbalanced group close at token %d", i)
			}
			if toks[i-1] == symtab.GroupOpen {
				return nil, fmt.Errorf("advert: empty group at token %d", i)
			}
			depth--
		case t == symtab.None || (t > symtab.GroupClose && t < symtab.FirstDynamic):
			return nil, fmt.Errorf("advert: reserved symbol %d at token %d", t, i)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("advert: %d unterminated groups", depth)
	}
	return build(toks), nil
}

// build wraps a token string the package built or checked.
func build(toks []symtab.Sym) *Advertisement {
	return &Advertisement{toks: toks}
}

// Tokens returns the advertisement's token string (see Advertisement). The
// slice is shared; callers must not modify it.
func (a *Advertisement) Tokens() []symtab.Sym { return a.toks }

// isName reports whether t is an element test rather than a group bracket.
func isName(t symtab.Sym) bool { return t != symtab.GroupOpen && t != symtab.GroupClose }

// groupEnd returns the index of the GroupClose that matches the GroupOpen
// at toks[open].
func groupEnd(toks []symtab.Sym, open int) int {
	depth := 0
	for i := open; ; i++ {
		switch toks[i] {
		case symtab.GroupOpen:
			depth++
		case symtab.GroupClose:
			if depth--; depth == 0 {
				return i
			}
		}
	}
}

// itemEnd returns the index just past the item that starts at toks[i]: a
// name, or a whole group.
func itemEnd(toks []symtab.Sym, i int) int {
	if toks[i] == symtab.GroupOpen {
		return groupEnd(toks, i) + 1
	}
	return i + 1
}

// Classify returns the advertisement's class.
func (a *Advertisement) Classify() Class {
	groups, depth, nested := 0, 0, false
	for _, t := range a.toks {
		switch t {
		case symtab.GroupOpen:
			groups++
			if depth++; depth > 1 {
				nested = true
			}
		case symtab.GroupClose:
			depth--
		}
	}
	switch {
	case nested:
		return EmbeddedRecursive
	case groups == 0:
		return NonRecursive
	case groups == 1:
		return SimpleRecursive
	default:
		return SeriesRecursive
	}
}

// IsRecursive reports whether the advertisement contains any group.
func (a *Advertisement) IsRecursive() bool { return slices.Contains(a.toks, symtab.GroupOpen) }

// MinLen returns the length of the shortest expansion (each group expanded
// exactly once).
func (a *Advertisement) MinLen() int {
	n := 0
	for _, t := range a.toks {
		if isName(t) {
			n++
		}
	}
	return n
}

// String renders the advertisement in the paper's notation, e.g.
// "/a/*(/e/d)+/c". The result round-trips through Parse.
func (a *Advertisement) String() string {
	var b strings.Builder
	for _, t := range a.toks {
		switch t {
		case symtab.GroupOpen:
			b.WriteByte('(')
		case symtab.GroupClose:
			b.WriteString(")+")
		default:
			b.WriteByte('/')
			b.WriteString(symtab.NameOf(t))
		}
	}
	return b.String()
}

// GobEncode encodes the advertisement for encoding/gob as its notation
// (String). It fails for an element name that the notation cannot spell,
// which an advertisement from FromTokens, such as a decoded one, can hold.
func (a *Advertisement) GobEncode() ([]byte, error) {
	for _, t := range a.toks {
		if isName(t) && strings.ContainsAny(symtab.NameOf(t), "/()") {
			return nil, fmt.Errorf("advert: element name %q has no notation", symtab.NameOf(t))
		}
	}
	return []byte(a.String()), nil
}

// GobDecode sets a to the advertisement GobEncode encoded.
func (a *Advertisement) GobDecode(data []byte) error {
	p, err := Parse(string(data))
	if err != nil {
		return err
	}
	a.toks = p.toks
	a.nfaCached.Store(nil)
	return nil
}

// tokenKey packs a token string into a map key, four bytes per token. The
// key is equal exactly when the token strings are; symbols are local to the
// process, so the key must not outlive it.
func tokenKey(toks []symtab.Sym) string {
	b := make([]byte, 0, 4*len(toks))
	for _, t := range toks {
		b = binary.LittleEndian.AppendUint32(b, uint32(t))
	}
	return string(b)
}

// Equal reports structural equality.
func (a *Advertisement) Equal(b *Advertisement) bool { return slices.Equal(a.toks, b.toks) }

// Clone returns a deep copy.
func (a *Advertisement) Clone() *Advertisement { return build(slices.Clone(a.toks)) }

// ToXPE converts a non-recursive advertisement to the equivalent absolute
// simple XPE (advertisements have the same format as absolute simple
// subscriptions, which is what makes advertisement covering reuse the
// subscription covering algorithms). It panics if the advertisement is
// recursive; callers dispatch on Classify.
func (a *Advertisement) ToXPE() *xpath.XPE {
	if a.IsRecursive() {
		panic("advert: ToXPE on recursive advertisement " + a.String())
	}
	steps := make([]xpath.Step, len(a.toks))
	for i, t := range a.toks {
		steps[i] = xpath.Step{Axis: xpath.Child, Name: symtab.NameOf(t)}
	}
	return &xpath.XPE{Steps: steps}
}

// Parse parses the paper's advertisement notation: a leading-"/" path whose
// components are element names or "*", with "(...)+" groups, e.g.
// "/a/*/c(/e/d)+/*/c/e" or "/x(/a(/b)+/c)+/y". Names are interned only once
// the whole input has parsed.
func Parse(input string) (*Advertisement, error) {
	p := &advParser{src: input}
	if err := p.sequence(false); err != nil {
		return nil, fmt.Errorf("advert: parse %q: %w", input, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("advert: parse %q: trailing input at offset %d", input, p.pos)
	}
	if len(p.toks) == 0 {
		return nil, fmt.Errorf("advert: parse %q: empty advertisement", input)
	}
	toks := make([]symtab.Sym, len(p.toks))
	for i, t := range p.toks {
		switch t {
		case "(":
			toks[i] = symtab.GroupOpen
		case ")":
			toks[i] = symtab.GroupClose
		default:
			toks[i] = symtab.Intern(t)
		}
	}
	return build(toks), nil
}

// MustParse is Parse for statically known advertisements; it panics on error.
func MustParse(input string) *Advertisement {
	a, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return a
}

// advParser reads the notation into a token string of names, with "(" and
// ")" for the group brackets (neither can occur in a name).
type advParser struct {
	src  string
	pos  int
	toks []string
}

func (p *advParser) sequence(inGroup bool) error {
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
				return fmt.Errorf("empty element name at offset %d", start)
			}
			p.toks = append(p.toks, name)
		case '(':
			p.pos++
			p.toks = append(p.toks, "(")
			open := len(p.toks)
			if err := p.sequence(true); err != nil {
				return err
			}
			if len(p.toks) == open {
				return fmt.Errorf("empty group at offset %d", p.pos)
			}
			if !strings.HasPrefix(p.src[p.pos:], ")+") {
				return fmt.Errorf("group not closed with \")+\" at offset %d", p.pos)
			}
			p.pos += 2
			p.toks = append(p.toks, ")")
		case ')':
			if !inGroup {
				return fmt.Errorf("unbalanced ')' at offset %d", p.pos)
			}
			return nil
		default:
			return fmt.Errorf("unexpected %q at offset %d", p.src[p.pos], p.pos)
		}
	}
	if inGroup {
		return fmt.Errorf("unterminated group")
	}
	return nil
}
