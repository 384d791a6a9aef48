package cover_test

import (
	"math/rand"
	"testing"

	"repro/internal/cover"
	"repro/internal/oracle"
	"repro/internal/xpath"
)

// FuzzCoversSound draws pairs of random expressions of up to
// xpath.MaxSteps steps, the longest the wire admits, and checks that
// Covers never panics and that whenever it reports covering, oracle.Selects
// accepts s1 on every sample path s2 selects. With derive set, s1 is a
// generalisation of s2 (steps dropped from either end, names widened to
// wildcards, child steps to descendant steps), so covering pairs, long ones
// included, are common. The test lives in package cover_test because
// oracle imports subtree, which imports cover.
func FuzzCoversSound(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(5), false)
	f.Add(int64(2), uint8(3), uint8(12), true)
	f.Add(int64(3), uint8(17), uint8(18), false)
	f.Add(int64(4), uint8(63), uint8(63), true)
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint8, derive bool) {
		r := rand.New(rand.NewSource(seed))
		s2 := randomXPE(r, 1+int(n2)%xpath.MaxSteps)
		s1 := randomXPE(r, 1+int(n1)%xpath.MaxSteps)
		if derive {
			s1 = generalise(r, s2)
		}
		if !cover.Covers(s1, s2) {
			return
		}
		for j := 0; j < 20; j++ {
			path := instance(r, s2)
			if j%2 == 1 {
				path = randomPath(r, 2*s2.Len())
			}
			if oracle.Selects(s2, path, nil, false) && !oracle.Selects(s1, path, nil, false) {
				t.Fatalf("Covers(%s, %s), but %v is selected by s2 only", s1, s2, path)
			}
		}
	})
}

var alphabet = []string{"a", "b", "c", xpath.Wildcard}

// randomXPE returns an expression of n steps over a, b, c and the wildcard.
func randomXPE(r *rand.Rand, n int) *xpath.XPE {
	x := &xpath.XPE{Relative: r.Intn(2) == 0}
	for i := 0; i < n; i++ {
		axis := xpath.Child
		if (i > 0 || !x.Relative) && r.Intn(4) == 0 {
			axis = xpath.Descendant
		}
		x.Steps = append(x.Steps, xpath.Step{Axis: axis, Name: alphabet[r.Intn(len(alphabet))]})
	}
	return x
}

// generalise returns an expression that covers s: a run of s's steps
// (relative when it drops a leading step), with some names widened to the
// wildcard and some child steps to descendant steps.
func generalise(r *rand.Rand, s *xpath.XPE) *xpath.XPE {
	from := r.Intn(s.Len())
	if r.Intn(2) == 0 {
		from = 0
	}
	to := from + 1 + r.Intn(s.Len()-from)
	if r.Intn(2) == 0 {
		to = s.Len()
	}
	g := &xpath.XPE{Relative: s.Relative || from > 0}
	for i, st := range s.Steps[from:to] {
		if r.Intn(3) == 0 {
			st.Name = xpath.Wildcard
		}
		if r.Intn(4) == 0 {
			st.Axis = xpath.Descendant
		}
		if i == 0 && g.Relative {
			st.Axis = xpath.Child
		}
		g.Steps = append(g.Steps, st)
	}
	return g
}

// instance returns a path s selects: random elements wherever a step
// Skips, each step's name (a random one for a wildcard), and a random tail.
func instance(r *rand.Rand, s *xpath.XPE) []string {
	var path []string
	for i, st := range s.Steps {
		if s.Skips(i) {
			path = append(path, randomPath(r, 2)...)
		}
		name := st.Name
		if st.IsWildcard() {
			name = elements[r.Intn(len(elements))]
		}
		path = append(path, name)
	}
	return append(path, randomPath(r, 2)...)
}

// elements are the path elements samples draw from: the expressions' names
// and one they never test.
var elements = []string{"a", "b", "c", "d"}

// randomPath returns up to n random elements; it may be empty.
func randomPath(r *rand.Rand, n int) []string {
	p := make([]string, r.Intn(n+1))
	for i := range p {
		p[i] = elements[r.Intn(len(elements))]
	}
	return p
}
