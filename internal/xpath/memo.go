package xpath

// This file bounds the cost of expression matching. The recursive matchers
// (matchFrom and its symbol/predicate variants) backtrack at every "//"
// step: the step may bind at any remaining path position, and on a
// non-matching path the recursion explores the full choice tree — with d
// descendant steps that is O(path^d). Parsed expressions are rarely deep
// enough to matter, but XPEs also arrive decoded off the wire with up to 64
// steps, and a crafted "//*//*//*..." expression would wedge a broker's
// matching workers at full CPU.
//
// Expressions with at most one descendant step cannot blow up (the choice
// tree is linear), so the common case keeps the allocation-free recursion;
// everything else goes through matchTable, a bottom-up evaluation of the
// same recurrence in O(steps × path) time and O(path) space.

// needsMemo reports whether naive backtracking could be super-linear: two
// or more descendant steps.
func needsMemo(steps []Step) bool {
	n := 0
	for _, s := range steps {
		if s.Axis == Descendant {
			if n++; n == 2 {
				return true
			}
		}
	}
	return false
}

// matchTable evaluates the matchFrom recurrence without backtracking.
// match(i, p) reports whether steps[i]'s name test (and predicates, for the
// annotated variants) accepts path element p; plen is the path length. For
// a relative expression every start position is tried, sharing the one
// table. The recurrence per row i (processed last step first):
//
//	t[p] = match(i, p) && next[p+1]          // bind the step at p
//	     || (steps[i].Axis == Descendant && t[p+1])  // or "//" skips p
//
// which unrolls the descendant case to "the step binds at some p' >= p",
// exactly the recursive matchers' loop.
func matchTable(steps []Step, plen int, relative bool, match func(i, p int) bool) bool {
	if len(steps) == 0 {
		return false
	}
	t := make([]bool, plen+1)
	next := make([]bool, plen+1)
	for p := range next {
		next[p] = true // row len(steps): no steps left matches everywhere
	}
	for i := len(steps) - 1; i >= 0; i-- {
		desc := steps[i].Axis == Descendant
		t[plen] = false // a remaining step cannot bind past the path's end
		for p := plen - 1; p >= 0; p-- {
			ok := match(i, p) && next[p+1]
			if !ok && desc {
				ok = t[p+1]
			}
			t[p] = ok
		}
		t, next = next, t
	}
	if relative {
		for start := 0; start+len(steps) <= plen; start++ {
			if next[start] {
				return true
			}
		}
		return false
	}
	return next[0]
}
