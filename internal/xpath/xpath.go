// Package xpath implements the XPath expression (XPE) fragment used by the
// XML/XPath routing system: single-path expressions built from the
// parent-child operator "/", the ancestor-descendant operator "//", element
// name tests, and the wildcard "*".
//
// An XPE is either absolute (it begins with "/" or "//") or relative. A
// publication in the routing system is a root-to-leaf path of an XML
// document, represented as a sequence of element names; XPEs are evaluated
// against such paths. An absolute XPE matches a path if it matches a prefix
// of it (the expression then selects an existing node of the document), a
// relative XPE may begin matching at any position, and a "//" step may skip
// any number of intermediate elements.
package xpath

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Wildcard is the element test that matches any element name.
const Wildcard = "*"

// Axis identifies the operator that connects a step to the part of the
// expression before it.
type Axis uint8

const (
	// Child is the parent-child operator "/".
	Child Axis = iota
	// Descendant is the ancestor-descendant operator "//".
	Descendant
)

// String returns the XPath spelling of the axis.
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Step is a single location step: an axis and an element name test. Name is
// either an element name or Wildcard. Preds holds attribute predicates in
// the canonical encoded form produced by EncodePreds ("" when there are
// none); keeping the encoding in a string keeps Step comparable.
type Step struct {
	Axis  Axis
	Name  string
	Preds string
}

// IsWildcard reports whether the step's name test matches any element.
func (s Step) IsWildcard() bool { return s.Name == Wildcard }

// XPE is a parsed single-path XPath expression.
//
// The zero value is an empty absolute expression, which is not valid;
// construct XPEs with Parse or New.
type XPE struct {
	// Relative records whether the expression lacks a leading "/" (or "//").
	Relative bool
	// Steps holds the location steps in document order. For an absolute
	// expression, Steps[0].Axis is the operator that follows the root: "/a"
	// yields {Child, "a"} and "//a" yields {Descendant, "a"}. For a relative
	// expression, Steps[0].Axis is always Child.
	Steps []Step

	// syms caches the interned form of the step name tests (see Syms). It is
	// populated lazily and atomically, so concurrent matchers share one
	// compilation. Steps must not be mutated after the first Syms call.
	syms symsView
	// key caches Key the same way: routing tables look an expression up by
	// its key on every insert, lookup and removal. Steps must not be mutated
	// after the first Key call either.
	key atomic.Pointer[string]
}

// New constructs an XPE from explicit steps. It does not validate names.
func New(relative bool, steps ...Step) *XPE {
	return &XPE{Relative: relative, Steps: steps}
}

// Len returns the number of location steps.
func (x *XPE) Len() int { return len(x.Steps) }

// IsSimple reports whether the expression contains no "//" operator beyond a
// possible leading one on a relative expression. The paper calls expressions
// without any "//" operator "simple"; we apply that test to all steps.
func (x *XPE) IsSimple() bool {
	for _, s := range x.Steps {
		if s.Axis == Descendant {
			return false
		}
	}
	return true
}

// HasWildcard reports whether any step's name test is the wildcard.
func (x *XPE) HasWildcard() bool {
	for _, s := range x.Steps {
		if s.IsWildcard() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the expression.
func (x *XPE) Clone() *XPE {
	steps := make([]Step, len(x.Steps))
	copy(steps, x.Steps)
	return &XPE{Relative: x.Relative, Steps: steps}
}

// Equal reports structural equality of two expressions.
func (x *XPE) Equal(y *XPE) bool {
	if x.Relative != y.Relative || len(x.Steps) != len(y.Steps) {
		return false
	}
	for i := range x.Steps {
		if x.Steps[i] != y.Steps[i] {
			return false
		}
	}
	return true
}

// String renders the expression in XPath syntax. The result round-trips
// through Parse.
func (x *XPE) String() string {
	var b strings.Builder
	for i, s := range x.Steps {
		switch {
		case i == 0 && x.Relative:
			// A relative expression has no leading operator.
		default:
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.Name)
		b.WriteString(s.Preds)
	}
	return b.String()
}

// Key returns a canonical map key for the expression: the String rendering
// with every step's predicates in canonical (sorted) order. Parsed
// expressions already store canonical predicate encodings, so for them Key
// equals String; hand-built steps whose Preds list the same predicates in a
// different order still produce the same Key, so routing tables never store
// one logical subscription twice.
//
// Key is computed on first use and cached; racing first calls compute
// equal strings and one is kept.
func (x *XPE) Key() string {
	if k := x.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	b.Grow(x.renderLen())
	for i, s := range x.Steps {
		switch {
		case i == 0 && x.Relative:
			// A relative expression has no leading operator.
		default:
			b.WriteString(s.Axis.String())
		}
		b.WriteString(s.Name)
		b.WriteString(canonicalPreds(s.Preds))
	}
	k := b.String()
	x.key.Store(&k)
	return k
}

// renderLen bounds the length of Key (canonical predicates are a reordering
// of the stored ones), so Key builds its result in one allocation.
func (x *XPE) renderLen() int {
	n := 0
	for _, s := range x.Steps {
		n += len("//") + len(s.Name) + len(s.Preds)
	}
	return n
}

// SegmentEnd returns the end of the segment that starts at step start: the
// index of the next step after start with a "//" operator, or Len (also for
// a start at or past Len). A segment is a maximal run of steps connected
// only by "/" operators; the covering and advertisement-matching algorithms
// decompose an XPE into segments by walking
// x.Steps[start:SegmentEnd(start)] from start 0, without allocating. A
// segment is preceded by "//" when its first step's axis is Descendant; the
// first segment of a relative expression is unanchored by virtue of
// x.Relative.
func (x *XPE) SegmentEnd(start int) int {
	end := start + 1
	for end < len(x.Steps) && x.Steps[end].Axis != Descendant {
		end++
	}
	return min(end, len(x.Steps))
}

// Parse parses an XPath expression of the supported fragment. It accepts
// absolute expressions ("/a/*//b", "//a"), and relative expressions ("a/b",
// "*/c//d"). It rejects empty expressions, empty steps, and names containing
// characters outside the NCName-like set [A-Za-z0-9._:-].
func Parse(input string) (*XPE, error) {
	if input == "" {
		return nil, fmt.Errorf("xpath: empty expression")
	}
	x := &XPE{Relative: true}
	i := 0
	axis := Child
	switch {
	case strings.HasPrefix(input, "//"):
		x.Relative = false
		axis = Descendant
		i = 2
	case input[0] == '/':
		x.Relative = false
		i = 1
	}
	for {
		start := i
		for i < len(input) && input[i] != '/' && input[i] != '[' {
			i++
		}
		name := input[start:i]
		if err := validateName(name); err != nil {
			return nil, fmt.Errorf("xpath: %q at offset %d: %w", input, start, err)
		}
		preds, next, err := parsePredicates(input, i)
		if err != nil {
			return nil, fmt.Errorf("xpath: %q: %w", input, err)
		}
		i = next
		x.Steps = append(x.Steps, Step{Axis: axis, Name: name, Preds: EncodePreds(preds)})
		if i == len(input) {
			break
		}
		if strings.HasPrefix(input[i:], "//") {
			axis = Descendant
			i += 2
		} else if input[i] == '/' {
			axis = Child
			i++
		} else {
			return nil, fmt.Errorf("xpath: %q: expected '/' at offset %d", input, i)
		}
		if i == len(input) {
			return nil, fmt.Errorf("xpath: %q: trailing operator", input)
		}
	}
	return x, nil
}

// MustParse is Parse for statically known expressions; it panics on error.
func MustParse(input string) *XPE {
	x, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return x
}

// Validate re-checks the structural invariants Parse guarantees, for
// expressions that arrived by other means: wire decoding hands the routing
// layer arbitrary Steps that never went through the parser. It rejects
// empty expressions, unknown axes, invalid name tests, malformed predicate
// encodings, and a relative expression whose first step is not a Child step
// (Parse never produces one, and the matchers assume it).
func (x *XPE) Validate() error {
	if len(x.Steps) == 0 {
		return fmt.Errorf("xpath: no steps")
	}
	if x.Relative && x.Steps[0].Axis != Child {
		return fmt.Errorf("xpath: relative expression with leading descendant step")
	}
	for i, s := range x.Steps {
		if s.Axis != Child && s.Axis != Descendant {
			return fmt.Errorf("xpath: step %d: unknown axis %d", i, s.Axis)
		}
		if err := validateName(s.Name); err != nil {
			return fmt.Errorf("xpath: step %d: %w", i, err)
		}
		if s.Preds != "" && DecodePreds(s.Preds) == nil {
			return fmt.Errorf("xpath: step %d: malformed predicates %q", i, s.Preds)
		}
	}
	return nil
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("empty step")
	}
	if name == Wildcard {
		return nil
	}
	for j := 0; j < len(name); j++ {
		c := name[j]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return fmt.Errorf("invalid character %q in step %q", c, name)
		}
	}
	return nil
}

// SymbolOverlaps implements the advertisement/subscription overlap rules of
// the paper (Fig. 2(b)): two name tests overlap unless both are concrete
// element names and differ.
func SymbolOverlaps(a, b string) bool {
	return a == Wildcard || b == Wildcard || a == b
}

// SymbolCovers implements the element-wise covering rule: test a covers test
// b if a is the wildcard, or if neither is the wildcard and they are equal.
// Note that a concrete name never covers the wildcard.
func SymbolCovers(a, b string) bool {
	if a == Wildcard {
		return true
	}
	return b != Wildcard && a == b
}
