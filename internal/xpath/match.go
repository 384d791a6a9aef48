package xpath

import "repro/internal/symtab"

// The evaluator (semantics in the package comment). One recursion does the
// work, but it backtracks at every "//" step: with d of them a
// non-matching path costs O(path^d), and XPEs decoded off the wire
// ("//*//*//*...", up to 64 steps) could wedge a matching worker. So
// expressions with two or more "//" steps go through table, a bottom-up
// evaluation of the same recurrence in O(steps × path) time.

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

func (x *XPE) matches(path []symtab.Sym, attrs []map[string]string, preds bool) bool {
	if len(x.Steps) == 0 {
		return false
	}
	e := evaluator{steps: x.Steps, syms: x.Syms(), path: path, attrs: attrs, preds: preds}
	return e.run(x.Relative, needsMemo(x.Steps))
}

// evaluator holds one evaluation's inputs; syms[i] is steps[i]'s name test.
type evaluator struct {
	steps []Step
	syms  []symtab.Sym
	path  []symtab.Sym
	attrs []map[string]string
	preds bool // evaluate predicates against attrs
}

// run evaluates with the table when memo is set, else with the recursion;
// a relative expression tries every start position.
func (e *evaluator) run(relative, memo bool) bool {
	var small [64]bool
	var row []bool
	if memo {
		row = e.table(small[:])
	}
	at := func(p int) bool {
		if memo {
			return row[p]
		}
		return e.from(0, p)
	}
	if !relative {
		return at(0)
	}
	for start := 0; start+len(e.steps) <= len(e.path); start++ {
		if at(start) {
			return true
		}
	}
	return false
}

// accepts reports whether step i's name test, and with preds its
// predicates, accept path element p.
func (e *evaluator) accepts(i, p int) bool {
	if s := e.syms[i]; s != symtab.Wildcard && s != e.path[p] {
		return false
	}
	if !e.preds || e.steps[i].Preds == "" {
		return true
	}
	var attrs map[string]string
	if p < len(e.attrs) {
		attrs = e.attrs[p]
	}
	return predsSatisfied(e.steps[i].Preds, attrs)
}

// from reports whether steps[i:] match the path beginning exactly at
// path[p]; a Descendant step i may still skip ahead from p.
func (e *evaluator) from(i, p int) bool {
	if i == len(e.steps) {
		return true
	}
	if e.steps[i].Axis == Child {
		return p < len(e.path) && e.accepts(i, p) && e.from(i+1, p+1)
	}
	for ; p < len(e.path); p++ {
		if e.accepts(i, p) && e.from(i+1, p+1) {
			return true
		}
	}
	return false
}

// needsMemo reports whether the recursion could be super-linear.
func needsMemo(steps []Step) bool {
	n := 0
	for _, s := range steps {
		if s.Axis == Descendant {
			n++
		}
	}
	return n >= 2
}

// table evaluates from's recurrence bottom-up, one row per step from the
// last to the first, and returns row 0: in row i, t[p] = from(i, p):
//
//	t[p] = accepts(i, p) && next[p+1]                // bind the step at p
//	     || (steps[i].Axis == Descendant && t[p+1])  // or "//" skips p
//
// The rows live in buf when it holds both, which keeps short paths off the
// heap.
func (e *evaluator) table(buf []bool) []bool {
	plen := len(e.path)
	if n := 2 * (plen + 1); n > len(buf) {
		buf = make([]bool, n)
	}
	t, next := buf[:plen+1], buf[plen+1:2*(plen+1)]
	for p := range next {
		next[p] = true // row len(steps): no steps left matches everywhere
	}
	for i := len(e.steps) - 1; i >= 0; i-- {
		desc := e.steps[i].Axis == Descendant
		t[plen] = false // a remaining step cannot bind past the path's end
		for p := plen - 1; p >= 0; p-- {
			ok := e.accepts(i, p) && next[p+1]
			if !ok && desc {
				ok = t[p+1]
			}
			t[p] = ok
		}
		t, next = next, t
	}
	return next
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
