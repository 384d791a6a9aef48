package xpath

import (
	"math/bits"

	"repro/internal/symtab"
)

// MatchesSymPath reports whether the expression selects a node on the
// interned path, ignoring attribute predicates. Path elements outside the
// interned alphabet appear as symtab.None, which only wildcard steps match
// (a concrete step's name is always interned, by Syms).
func (x *XPE) MatchesSymPath(path []symtab.Sym) bool {
	return x.matches(path, nil, false)
}

// MatchesSymPathAttrs is MatchesSymPath with attribute predicates evaluated
// against attrs[i], the attributes of path[i]; a missing or nil entry fails
// any predicate.
func (x *XPE) MatchesSymPathAttrs(path []symtab.Sym, attrs []map[string]string) bool {
	return x.matches(path, attrs, true)
}

// MatchesPathAttrs is MatchesSymPathAttrs over element names. Syms interns
// the expression's names before LookupPath converts the path, so an element
// the expression names finds its symbol and foreign names do not grow the
// table.
func (x *XPE) MatchesPathAttrs(path []string, attrs []map[string]string) bool {
	x.Syms()
	return x.MatchesSymPathAttrs(symtab.LookupPath(path), attrs)
}

// matches is the evaluator (semantics in the package comment): the
// expression's position automaton run over the path, one bit per step.
// Bit i of active means steps[:i] matched a prefix of the elements read so
// far and step i is next. On each element a step that Skips keeps its bit,
// and a step whose test accepts the element moves it up one place; firing
// the last step accepts, since the selected node exists whatever follows.
// The loop costs O(path × steps) at worst and never allocates. An
// expression longer than MaxSteps, which only hand-built steps can be,
// matches nothing.
func (x *XPE) matches(path []symtab.Sym, attrs []map[string]string, preds bool) bool {
	last := len(x.Steps) - 1
	if last < 0 || last >= MaxSteps {
		return false
	}
	syms := x.Syms()
	active := uint64(1)
	for p, el := range path {
		var next uint64
		for m := active; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if x.Skips(i) {
				next |= 1 << i
			}
			if s := syms[i]; s != symtab.Wildcard && s != el {
				continue
			}
			if preds && x.Steps[i].Preds != "" && !predsSatisfied(x.Steps[i].Preds, attrsAt(attrs, p)) {
				continue
			}
			if i == last {
				return true
			}
			next |= 1 << (i + 1)
		}
		if next == 0 {
			return false
		}
		active = next
	}
	return false
}

// attrsAt returns attrs[p], or nil past the end of attrs.
func attrsAt(attrs []map[string]string, p int) map[string]string {
	if p < len(attrs) {
		return attrs[p]
	}
	return nil
}

// predsSatisfied reports whether an encoded predicate list holds for the
// attributes of one path element. A missing attribute fails its predicate.
// A malformed encoding holds no predicates, as DecodePreds reads it.
func predsSatisfied(encoded string, attrs map[string]string) bool {
	ok := true
	for i := 0; i < len(encoded); {
		if encoded[i] != '[' {
			return true
		}
		p, next, err := nextPred(encoded, i)
		if err != nil {
			return true
		}
		if v, found := attrs[p.Attr]; !found || v != p.Value {
			ok = false
		}
		i = next
	}
	return ok
}
