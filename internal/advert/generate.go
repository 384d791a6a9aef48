package advert

import (
	"fmt"
	"slices"

	"repro/internal/dtd"
	"repro/internal/symtab"
)

// DefaultGenerateLimit bounds the number of advertisements Generate will
// produce before giving up; it guards against combinatorially explosive
// DTDs.
const DefaultGenerateLimit = 500000

// Generate derives the complete advertisement set from a DTD: one
// advertisement per root-to-leaf path pattern of documents conforming to the
// DTD. Non-recursive DTDs yield plain path advertisements. Recursion is
// detected through back-edges of the containment-graph DFS; a back-edge
// wraps the cycle's element run into a one-or-more "(...)+" group, nested
// back-edges produce embedded groups, and disjoint cycles along one path
// produce series groups — the paper's three recursive-advertisement classes.
//
// An advertisement ends at every element that can be childless in a
// conforming document (EMPTY or mixed content, or a nullable content model),
// because such an element can terminate a root-to-leaf path.
//
// The generator is sound for DTDs whose cycles are simple and entered only
// at their head, which the embedded corpora satisfy; soundness (every
// document path matches at least one advertisement) is verified by property
// tests in package gen against randomly generated documents.
func Generate(d *dtd.DTD) ([]*Advertisement, error) {
	return GenerateLimited(d, DefaultGenerateLimit)
}

// GenerateLimited is Generate with an explicit output-size cap.
func GenerateLimited(d *dtd.DTD, limit int) ([]*Advertisement, error) {
	if d.Element(d.Root) == nil {
		return nil, fmt.Errorf("advert: DTD has no root element declaration")
	}
	g := &generator{
		d:       d,
		onStack: make(map[string]int),
		seen:    make(map[string]bool),
		limit:   limit,
	}
	if err := g.visit(d.Root); err != nil {
		return nil, err
	}
	return g.results, nil
}

type generator struct {
	d       *dtd.DTD
	toks    []symtab.Sym   // the open path under construction, as tokens
	onStack map[string]int // ancestor element -> index of its token; -1 while wrapped
	results []*Advertisement
	seen    map[string]bool
	limit   int
}

// errLimit is the sentinel for exceeding the advertisement cap.
var errLimit = fmt.Errorf("advert: advertisement limit exceeded")

func (g *generator) emit() error {
	key := tokenKey(g.toks)
	if g.seen[key] {
		return nil
	}
	if len(g.results) >= g.limit {
		return fmt.Errorf("%w (%d)", errLimit, g.limit)
	}
	g.seen[key] = true
	g.results = append(g.results, build(slices.Clone(g.toks)))
	return nil
}

// visit explores element name as the next path component.
func (g *generator) visit(name string) error {
	idx := len(g.toks)
	g.toks = append(g.toks, symtab.Intern(name))
	g.onStack[name] = idx
	defer func() {
		delete(g.onStack, name)
		g.toks = g.toks[:idx]
	}()

	if g.d.CanBeChildless(name) {
		if err := g.emit(); err != nil {
			return err
		}
	}
	for _, c := range g.d.Children(name) {
		if err := g.descend(c); err != nil {
			return err
		}
	}
	return nil
}

// descend continues path construction into child element c: a fresh element
// is visited, a back-edge to an ancestor wraps the cycle lap into a group,
// and an ancestor whose symbol is already inside a wrapped group (masked,
// index -1) is not pumped again.
func (g *generator) descend(c string) error {
	pos, on := g.onStack[c]
	switch {
	case on && pos >= 0:
		return g.handleBackEdge(pos)
	case on:
		return nil
	default:
		return g.visit(c)
	}
}

// handleBackEdge is called when the current element (the last of g.toks)
// has a child that is already on the path at token index pos. The run
// toks[pos:] is one full lap of a cycle; the grouped advertisement
// (lap)+ covers one or more laps. The method emits and explores every
// continuation of the pumped pattern:
//
//   - an exit taken right after a complete lap (a child of the lap's last
//     element other than the cycle head), and
//   - partial re-walks of the lap followed by an exit from an interior
//     element.
func (g *generator) handleBackEdge(pos int) error {
	lap := slices.Clone(g.toks[pos:])
	saved := g.toks
	g.toks = slices.Concat(saved[:pos], []symtab.Sym{symtab.GroupOpen}, lap, []symtab.Sym{symtab.GroupClose})

	// While exploring the pumped configuration, ancestors whose symbols were
	// swallowed by the group must not be wrapped again: their recorded token
	// indices are stale.
	var masked []string
	for el, p := range g.onStack {
		if p >= pos {
			g.onStack[el] = -1
			masked = append(masked, el)
		}
	}
	defer func() {
		g.toks = saved
		for _, el := range masked {
			// All masked elements are still on the path frames below us;
			// restore their true indices from the saved layout.
			g.onStack[el] = indexOfSym(saved, el)
		}
	}()

	// The expansion of the group ends at the lap's last element; a document
	// may end there if that element can be childless.
	last := lastElement(lap)
	if last != "" && g.d.CanBeChildless(last) {
		if err := g.emit(); err != nil {
			return err
		}
	}
	// Exits after a complete lap. A nested back-edge found here wraps the
	// pumped configuration again, which is where embedded-recursive
	// advertisements come from.
	head := headElement(lap)
	if last != "" {
		for _, x := range g.d.Children(last) {
			if x == head {
				continue // taking the back-edge again is the group itself
			}
			if err := g.descend(x); err != nil {
				return err
			}
		}
	}
	// Partial re-walks: after k full laps the document may walk a strict
	// prefix of the lap again and then diverge.
	return g.partialLaps(lap)
}

// partialLaps appends the lap's items one at a time, every one but the
// last, and explores exits from each prefix's last element.
func (g *generator) partialLaps(lap []symtab.Sym) error {
	base := len(g.toks)
	for i, j := 0, itemEnd(lap, 0); j < len(lap); i, j = j, itemEnd(lap, j) {
		g.toks = append(g.toks, lap[i:j]...)
		el := itemElement(lap[i:j])
		if el == "" {
			continue // divergence inside a nested group is not re-walked
		}
		if g.d.CanBeChildless(el) {
			if err := g.emit(); err != nil {
				return err
			}
		}
		for _, x := range g.d.Children(el) {
			if x == headElement(lap[j:]) {
				continue // continuing the lap is covered by longer prefixes
			}
			if err := g.descend(x); err != nil {
				return err
			}
		}
	}
	g.toks = g.toks[:base]
	return nil
}

// itemElement returns the element a path position corresponds to, given
// the item's tokens: the name of a symbol item, or the single element of a
// self-loop group. Nested multi-element groups have no single
// representative and yield "".
func itemElement(item []symtab.Sym) string {
	switch {
	case len(item) == 1:
		return symtab.NameOf(item[0])
	case len(item) == 3 && isName(item[1]):
		return symtab.NameOf(item[1])
	}
	return ""
}

// headElement returns the first element of a token run's expansion.
func headElement(toks []symtab.Sym) string {
	for _, t := range toks {
		if t != symtab.GroupOpen {
			return symtab.NameOf(t)
		}
	}
	return ""
}

// lastElement returns the final element of a token run's expansion. Every
// expansion of a group ends with the group body's last element.
func lastElement(toks []symtab.Sym) string {
	for i := len(toks) - 1; i >= 0; i-- {
		if toks[i] != symtab.GroupClose {
			return symtab.NameOf(toks[i])
		}
	}
	return ""
}

// indexOfSym finds the token index of element el in an open-path layout,
// looking through top-level symbols only; -1 if the element is inside a
// group.
func indexOfSym(toks []symtab.Sym, el string) int {
	sym, depth := symtab.Intern(el), 0
	for i, t := range toks {
		switch t {
		case symtab.GroupOpen:
			depth++
		case symtab.GroupClose:
			depth--
		case sym:
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}
