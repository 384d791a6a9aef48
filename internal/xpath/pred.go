package xpath

import (
	"fmt"
	"sort"
	"strings"
)

// Pred is an attribute equality predicate on a location step:
// "[@name='value']". The paper notes its approach "could be easily extended
// to element attributes and content ... through value comparison"; this file
// is that extension. A step may carry several predicates; all must hold.
//
// On a Step, predicates are stored in canonical encoded form (Step.Preds),
// which keeps Step a comparable value type; EncodePreds and DecodePreds
// convert.
type Pred struct {
	Attr  string
	Value string
}

// String renders the predicate in XPath syntax. The value is single-quoted
// unless it contains a single quote, in which case double quotes are used —
// a parsed value never contains its own quote character, so rendering a
// parsed predicate always round-trips. (A hand-built Pred whose value holds
// BOTH quote characters is not expressible in the syntax at all.)
func (p Pred) String() string {
	if strings.Contains(p.Value, "'") {
		return "[@" + p.Attr + "=\"" + p.Value + "\"]"
	}
	return "[@" + p.Attr + "='" + p.Value + "']"
}

// EncodePreds renders predicates in canonical (sorted) form, the
// representation Step.Preds holds. It returns "" for no predicates.
func EncodePreds(preds []Pred) string {
	if len(preds) == 0 {
		return ""
	}
	sorted := make([]Pred, len(preds))
	copy(sorted, preds)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Attr != sorted[j].Attr {
			return sorted[i].Attr < sorted[j].Attr
		}
		return sorted[i].Value < sorted[j].Value
	})
	var b strings.Builder
	for _, p := range sorted {
		b.WriteString(p.String())
	}
	return b.String()
}

// DecodePreds parses a canonical predicate string back into predicates.
// Malformed input yields nil; Step.Preds is only ever produced by
// EncodePreds or the parser, which guarantee well-formedness.
func DecodePreds(encoded string) []Pred {
	if encoded == "" {
		return nil
	}
	preds, rest, err := parsePredicates(encoded, 0)
	if err != nil || rest != len(encoded) {
		return nil
	}
	return preds
}

// canonicalPreds re-encodes a predicate string in canonical (sorted) order.
// Parser- and EncodePreds-produced strings are already canonical and come
// back unchanged; a hand-built unsorted encoding is normalised so Key() is
// stable under predicate order. Strings that do not parse as predicates are
// returned verbatim (they can only come from hand-built steps, and keeping
// them distinct is the safe choice).
func canonicalPreds(encoded string) string {
	if encoded == "" {
		return ""
	}
	preds := DecodePreds(encoded)
	if preds == nil {
		return encoded
	}
	if canonical := EncodePreds(preds); canonical != encoded {
		return canonical
	}
	return encoded
}

// HasPredicates reports whether any step carries attribute predicates.
func (x *XPE) HasPredicates() bool {
	for _, s := range x.Steps {
		if s.Preds != "" {
			return true
		}
	}
	return false
}

// StepCovers extends the element-wise covering rule to predicates: step a
// covers step b iff a's name test covers b's and a's predicates are a
// subset of b's (fewer constraints admit more publications).
func StepCovers(a, b Step) bool {
	return SymbolCovers(a.Name, b.Name) && predsCover(a, b)
}

// predsCover reports whether step a's predicates are a subset of b's.
func predsCover(a, b Step) bool {
	return a.Preds == "" || a.Preds == b.Preds || predsSubset(DecodePreds(a.Preds), DecodePreds(b.Preds))
}

// predsSubset reports whether every predicate of a also appears in b.
func predsSubset(a, b []Pred) bool {
	if len(a) > len(b) {
		return false
	}
outer:
	for _, pa := range a {
		for _, pb := range b {
			if pa == pb {
				continue outer
			}
		}
		return false
	}
	return true
}

// parsePredicates consumes zero or more "[@name='value']" groups starting
// at input[i], returning the predicates and the new offset.
func parsePredicates(input string, i int) ([]Pred, int, error) {
	var preds []Pred
	for i < len(input) && input[i] == '[' {
		p, next, err := nextPred(input, i)
		if err != nil {
			return nil, i, err
		}
		preds = append(preds, p)
		i = next
	}
	return preds, i, nil
}

// nextPred parses the one "[@name='value']" group at input[i] and returns
// it with the offset just past it. The predicate's strings are substrings
// of input, so parsing allocates nothing.
func nextPred(input string, i int) (Pred, int, error) {
	j := i + 1
	if j >= len(input) || input[j] != '@' {
		return Pred{}, i, fmt.Errorf("expected '@' after '[' at offset %d", i)
	}
	j++
	nameStart := j
	for j < len(input) && input[j] != '=' {
		j++
	}
	if j >= len(input) {
		return Pred{}, i, fmt.Errorf("unterminated predicate at offset %d", i)
	}
	name := input[nameStart:j]
	if name == "" {
		return Pred{}, i, fmt.Errorf("empty attribute name at offset %d", nameStart)
	}
	j++ // '='
	if j >= len(input) || (input[j] != '\'' && input[j] != '"') {
		return Pred{}, i, fmt.Errorf("expected quoted value at offset %d", j)
	}
	quote := input[j]
	j++
	valStart := j
	end := strings.IndexByte(input[j:], quote)
	if end < 0 {
		return Pred{}, i, fmt.Errorf("unterminated value at offset %d", valStart)
	}
	j += end
	value := input[valStart:j]
	j++ // closing quote
	if j >= len(input) || input[j] != ']' {
		return Pred{}, i, fmt.Errorf("expected ']' at offset %d", j)
	}
	return Pred{Attr: name, Value: value}, j + 1, nil
}
