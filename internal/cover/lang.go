package cover

import (
	"repro/internal/xpath"
)

// CoversExact decides covering (path-language inclusion L(s2) ⊆ L(s1))
// exactly, for any combination of supported expression forms.
//
// Each XPE denotes a regular language of element paths: a child step
// consumes one compatible element, a descendant step may skip arbitrarily
// many elements first, a relative expression may start anywhere, and any
// matched path remains matched under extension (the selected node still
// exists). Containment over the infinite element alphabet reduces to
// containment over the names occurring in either expression plus one fresh
// symbol, because the expressions can only test equality against their own
// names. Routing workloads keep expressions to about a dozen steps, so the
// subset-product search is trivially small.
//
// The masks and the alphabet are sized for expressions of up to
// maxExactSteps steps. A longer one, which the wire admits up to
// xpath.MaxSteps, is reported as not covered: missing a covering relation
// is always safe (see Covers).
func CoversExact(s1, s2 *xpath.XPE) bool {
	if s1.Len() == 0 || s2.Len() == 0 || s1.Len() > maxExactSteps || s2.Len() > maxExactSteps {
		return false
	}
	var alphabet [2*maxExactSteps + 1]string
	names := collectNames(s1, s2, alphabet[:0])
	a1, a2 := compileMasks(s1, names), compileMasks(s2, names)
	accept1 := uint32(1) << uint(s1.Len())
	accept2 := uint32(1) << uint(s2.Len())

	// The product search keeps its visited set and work queue on the stack:
	// reachable product states number in the tens for routing-sized
	// expressions, and this procedure is the inner loop of bulk covering
	// scans.
	var seen prodSet
	var queueBuf [96]uint64
	queue := queueBuf[:0]
	push := func(m1, m2 uint32) {
		if m2 == 0 {
			return // the word has left L(s2)'s reachable set entirely
		}
		k := uint64(m1)<<32 | uint64(m2)
		if seen.add(k) {
			queue = append(queue, k)
		}
	}
	push(1, 1) // state 0: no step consumed
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m1, m2 := uint32(k>>32), uint32(k)
		if m2&accept2 != 0 && m1&accept1 == 0 {
			return false // a path matching s2 but not s1
		}
		for j := range names {
			push(a1.step(m1, j), a2.step(m2, j))
		}
	}
	return true
}

// prodSet is a small open-addressing set of uint64 keys (0 is never a valid
// key: the s2 mask component is always non-zero). It spills to a map only in
// pathological cases.
type prodSet struct {
	slots    [256]uint64
	overflow map[uint64]bool
}

// add inserts k, reporting whether it was absent.
func (s *prodSet) add(k uint64) bool {
	i := (k * 0x9E3779B97F4A7C15) >> 56
	for probes := 0; probes < len(s.slots); probes++ {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
		i = (i + 1) % uint64(len(s.slots))
	}
	if s.overflow == nil {
		s.overflow = make(map[uint64]bool)
	}
	if s.overflow[k] {
		return false
	}
	s.overflow[k] = true
	return true
}

// maxExactSteps bounds the expressions CoversExact decides: each mask has a
// bit per step plus the accept bit, and the alphabet holds both
// expressions' names and freshName.
const maxExactSteps = 16

// freshName is an element name guaranteed not to occur in any expression
// (parsers reject it), standing in for "every other element".
const freshName = "\x00fresh"

func collectNames(s1, s2 *xpath.XPE, dst []string) []string {
	dst = append(dst, freshName)
	for _, s := range []*xpath.XPE{s1, s2} {
	steps:
		for _, st := range s.Steps {
			if st.IsWildcard() {
				continue
			}
			for _, have := range dst {
				if have == st.Name {
					continue steps
				}
			}
			dst = append(dst, st.Name)
		}
	}
	return dst
}

// maskAutomaton is an XPE's path automaton with its transitions tabulated
// over a fixed alphabet. State i means "i steps consumed"; state Len(s) is
// the absorbing accept (extensions of matched paths stay matched).
type maskAutomaton struct {
	// stay holds the states that persist on any symbol: a step that may be
	// preceded by skipped elements (a descendant step, or the start of a
	// relative expression), and the accept state.
	stay uint32
	// adv[j] holds the states i < Len(s) whose step test admits alphabet
	// symbol j; reading j moves each to i+1.
	adv [2*maxExactSteps + 1]uint32
}

// compileMasks tabulates s's automaton over names, once per CoversExact
// call, so the product search advances a state set in O(1) per symbol.
func compileMasks(s *xpath.XPE, names []string) maskAutomaton {
	a := maskAutomaton{stay: 1 << uint(s.Len())}
	for i, st := range s.Steps {
		if s.Skips(i) {
			a.stay |= 1 << uint(i)
		}
		for j, name := range names {
			if st.IsWildcard() || st.Name == name {
				a.adv[j] |= 1 << uint(i)
			}
		}
	}
	return a
}

// step advances the state set mask over alphabet symbol j.
func (a *maskAutomaton) step(mask uint32, j int) uint32 {
	return mask&a.stay | (mask&a.adv[j])<<1
}
