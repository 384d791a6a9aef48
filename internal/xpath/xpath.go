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
}

// New constructs an XPE from explicit steps. It does not validate names.
func New(relative bool, steps ...Step) *XPE {
	return &XPE{Relative: relative, Steps: steps}
}

// Len returns the number of location steps.
func (x *XPE) Len() int { return len(x.Steps) }

// IsAbsolute reports whether the expression is anchored at the document root.
func (x *XPE) IsAbsolute() bool { return !x.Relative }

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

// Names returns the sequence of name tests of all steps.
func (x *XPE) Names() []string {
	names := make([]string, len(x.Steps))
	for i, s := range x.Steps {
		names[i] = s.Name
	}
	return names
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
func (x *XPE) Key() string {
	var b strings.Builder
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
	return b.String()
}

// Segment is a maximal run of steps connected only by "/" operators. The
// covering and advertisement-matching algorithms decompose an XPE at its
// "//" operators into segments.
type Segment struct {
	// Names are the name tests of the run, in order.
	Names []string
	// AfterDescendant records whether the segment is preceded by a "//"
	// operator (true for every segment except possibly the first).
	AfterDescendant bool
}

// Segments splits the expression at its "//" operators. The first segment of
// an absolute expression starting with "/" has AfterDescendant == false; a
// leading "//" yields a first segment with AfterDescendant == true. A
// relative expression's first segment has AfterDescendant == false but is
// unanchored by virtue of x.Relative.
func (x *XPE) Segments() []Segment {
	if len(x.Steps) == 0 {
		return nil
	}
	var segs []Segment
	cur := Segment{AfterDescendant: x.Steps[0].Axis == Descendant}
	for i, s := range x.Steps {
		if i > 0 && s.Axis == Descendant {
			segs = append(segs, cur)
			cur = Segment{AfterDescendant: true}
		}
		cur.Names = append(cur.Names, s.Name)
	}
	segs = append(segs, cur)
	return segs
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

// MatchesPath reports whether the expression selects a node on the given
// root-to-leaf element path. An absolute expression must match a prefix of
// the path; a relative expression may begin at any position; a "//" step may
// skip zero or more additional elements.
func (x *XPE) MatchesPath(path []string) bool {
	if len(x.Steps) == 0 {
		return false
	}
	if needsMemo(x.Steps) {
		return matchTable(x.Steps, len(path), x.Relative, func(i, p int) bool {
			return stepMatches(x.Steps[i], path[p])
		})
	}
	if x.Relative {
		for start := 0; start+len(x.Steps) <= len(path); start++ {
			if matchFrom(x.Steps, path, start) {
				return true
			}
		}
		return false
	}
	return matchFrom(x.Steps, path, 0)
}

// matchFrom matches steps against path beginning exactly at path[pos]
// (step 0's own axis is honoured: a Descendant first step may still skip
// ahead from pos).
func matchFrom(steps []Step, path []string, pos int) bool {
	if len(steps) == 0 {
		return true
	}
	s := steps[0]
	if s.Axis == Child {
		if pos >= len(path) || !stepMatches(s, path[pos]) {
			return false
		}
		return matchFrom(steps[1:], path, pos+1)
	}
	// Descendant: the step's element may appear at pos, pos+1, ...
	for p := pos; p < len(path); p++ {
		if stepMatches(s, path[p]) && matchFrom(steps[1:], path, p+1) {
			return true
		}
	}
	return false
}

func stepMatches(s Step, name string) bool {
	return s.IsWildcard() || s.Name == name
}
