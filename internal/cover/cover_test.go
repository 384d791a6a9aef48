package cover

import (
	"math/rand"
	"testing"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

func xp(s string) *xpath.XPE { return xpath.MustParse(s) }

// longA and longB are longer than CoversExact's masks hold.
const (
	longA = "//*/*/*/a/*/*//a//*//a/*/a/a/a//a//*/a//*"
	longB = "/b/*/a/b/b/a/*/a/b/a/b/a/*//a/a//a/*//*"
)

func TestAbsSimCov(t *testing.T) {
	tests := []struct {
		s1, s2 string
		want   bool
	}{
		{"/a", "/a/b", true},
		{"/a", "/a", true},
		{"/a/b", "/a", false}, // longer never covers shorter
		{"/a/*", "/a/b", true},
		{"/a/b", "/a/*", false}, // a name never covers the wildcard
		{"/*", "/a", true},
		{"/a/b", "/a/c", false},
		{"/a/*/c", "/a/b/c/d", true},
		{"/a/*/c", "/a/b/d/c", false},
	}
	for _, tt := range tests {
		if got := AbsSimCov(xp(tt.s1), xp(tt.s2)); got != tt.want {
			t.Errorf("AbsSimCov(%s, %s) = %v, want %v", tt.s1, tt.s2, got, tt.want)
		}
	}
}

func TestRelSimCov(t *testing.T) {
	tests := []struct {
		s1, s2 string
		want   bool
	}{
		{"b", "/a/b", true},
		{"b", "/a/b/c", true},
		{"b/c", "/a/b/c", true},
		{"b/c", "/a/c/b", false},
		{"*/c", "/a/b/c", true},
		{"b", "a/b", true},  // relative covers relative
		{"b/c", "b", false}, // longer never covers shorter
		{"d/a", "/x/d/a", true},
		{"b/*", "/a/b", false}, // would need a position beyond s2's end
	}
	for _, tt := range tests {
		if got := RelSimCov(xp(tt.s1), xp(tt.s2)); got != tt.want {
			t.Errorf("RelSimCov(%s, %s) = %v, want %v", tt.s1, tt.s2, got, tt.want)
		}
	}
}

func TestCoversDispatch(t *testing.T) {
	tests := []struct {
		s1, s2 string
		want   bool
	}{
		{"/a", "/a/b", true},
		{"b", "/a/b", true},
		{"/a/b", "b", false}, // absolute never covers relative
		{"/a//c", "/a/b/c", true},
		{"/a/b/c", "/a//c", false},
		{"//c", "/a/b/c", true},
		{"/a//c", "/a//b//c", true},
		{"/a//b//c", "/a//c", false},
		{"*", "/a", true},
		{"*", "anything", true},
		// Past CoversExact's masks (the wire admits up to xpath.MaxSteps
		// steps). This pair once made Covers panic when DesCov missed;
		// neither covers the other (the first needs an "a" after its
		// "a/*/a/a/a", which the second's shortest paths lack, and the
		// second needs a leading "b"). DesCov still settles what it can.
		{longA, longB, false},
		{longB, longA, false},
		{longA, longA, true},
	}
	for _, tt := range tests {
		if got := Covers(xp(tt.s1), xp(tt.s2)); got != tt.want {
			t.Errorf("Covers(%s, %s) = %v, want %v", tt.s1, tt.s2, got, tt.want)
		}
	}
}

// TestDesCovPaperExamples encodes the worked examples of Section 4.2.
func TestDesCovPaperExamples(t *testing.T) {
	// Example 1: s1 = /*/a//*/c covers s2 = /a/a/*//c/e/c/d.
	s1 := xp("/*/a//*/c")
	s2 := xp("/a/a/*//c/e/c/d")
	if !DesCov(s1, s2) {
		t.Error("example 1: DesCov should detect the covering")
	}
	if !CoversExact(s1, s2) {
		t.Error("example 1: CoversExact should detect the covering")
	}

	// Special-case example: s1 = /a/*//*/d covers s2 = /a//b/c/d.
	s3 := xp("/a/*//*/d")
	s4 := xp("/a//b/c/d")
	if !CoversExact(s3, s4) {
		t.Error("special case: CoversExact should detect the covering")
	}

	// Example 2: s1 = /*/a//*/c vs s2 = /a/a/*//c/b/d. The paper's greedy
	// algorithm reports no covering. Under path semantics the covering in
	// fact holds — the c required by s2 always has an immediate predecessor
	// — which the exact procedure detects; DesCov's miss illustrates its
	// incompleteness and is documented in DESIGN.md.
	s5 := xp("/*/a//*/c")
	s6 := xp("/a/a/*//c/b/d")
	if !CoversExact(s5, s6) {
		t.Error("example 2: exact containment should hold")
	}
}

func TestCoversExact(t *testing.T) {
	tests := []struct {
		s1, s2 string
		want   bool
	}{
		{"/a//c", "/a/b/c", true},
		{"/a//c", "/a/b/d", false},
		{"/a//c", "/a//b/c", true},
		{"/a//b/c", "/a//c", false},
		{"//c", "c", true}, // both float: identical languages
		{"c", "//c", true},
		{"/a//*", "/a/b", true},
		{"/a//*", "/a", false}, // s2 admits the single-element path "a"
		{"/a", "/a//*", true},
		{"/*//*", "/a/b", true},
		{"b//d", "/a/b/c/d", true},
		{"b//d", "/a/b/d", true},
		{"b//d", "/a/d/b", false},
		{longA, longA, false}, // past the masks: reported as not covering
	}
	for _, tt := range tests {
		if got := CoversExact(xp(tt.s1), xp(tt.s2)); got != tt.want {
			t.Errorf("CoversExact(%s, %s) = %v, want %v", tt.s1, tt.s2, got, tt.want)
		}
	}
}

func TestCoversAdvertisement(t *testing.T) {
	tests := []struct {
		a1, a2 []string
		want   bool
	}{
		{[]string{"a", "*"}, []string{"a", "b"}, true},
		{[]string{"a", "b"}, []string{"a", "b"}, true},
		{[]string{"a"}, []string{"a", "b"}, false}, // different publication lengths
		{[]string{"a", "b"}, []string{"a", "*"}, false},
	}
	for _, tt := range tests {
		if got := CoversAdvertisement(symtab.InternPath(tt.a1), symtab.InternPath(tt.a2)); got != tt.want {
			t.Errorf("CoversAdvertisement(%v, %v) = %v, want %v", tt.a1, tt.a2, got, tt.want)
		}
	}
}

func randomXPE(r *rand.Rand, maxLen int) *xpath.XPE {
	alphabet := []string{"a", "b", "c", xpath.Wildcard}
	n := 1 + r.Intn(maxLen)
	s := &xpath.XPE{Relative: r.Intn(2) == 0}
	for i := 0; i < n; i++ {
		axis := xpath.Child
		if (i > 0 || !s.Relative) && r.Intn(4) == 0 {
			axis = xpath.Descendant
		}
		s.Steps = append(s.Steps, xpath.Step{Axis: axis, Name: alphabet[r.Intn(len(alphabet))]})
	}
	return s
}

func randomPath(r *rand.Rand, maxLen int) []string {
	alphabet := []string{"a", "b", "c", "d"}
	n := 1 + r.Intn(maxLen)
	p := make([]string, n)
	for i := range p {
		p[i] = alphabet[r.Intn(len(alphabet))]
	}
	return p
}

// TestQuickCoversSemantics: whenever Covers(s1, s2) holds, every path
// matching s2 must match s1 — the defining property of covering.
func TestQuickCoversSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	covered := 0
	for i := 0; i < 20000; i++ {
		s1 := randomXPE(r, 5)
		s2 := randomXPE(r, 5)
		if !Covers(s1, s2) {
			continue
		}
		covered++
		for j := 0; j < 40; j++ {
			p := randomPath(r, 9)
			if s2.MatchesPathAttrs(p, nil) && !s1.MatchesPathAttrs(p, nil) {
				t.Fatalf("Covers(%s, %s) but path %v matches s2 only", s1, s2, p)
			}
		}
	}
	if covered < 500 {
		t.Errorf("only %d covering pairs sampled; workload too sparse", covered)
	}
}

// TestQuickDesCovSoundAgainstExact: the paper's greedy procedure must never
// claim a covering the exact procedure rejects.
func TestQuickDesCovSoundAgainstExact(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var greedyHits, exactHits int
	for i := 0; i < 20000; i++ {
		s1 := randomXPE(r, 5)
		s2 := randomXPE(r, 5)
		g := DesCov(s1, s2)
		e := CoversExact(s1, s2)
		if g {
			greedyHits++
		}
		if e {
			exactHits++
		}
		if g && !e {
			t.Fatalf("DesCov(%s, %s) claims covering; exact procedure disagrees", s1, s2)
		}
	}
	if greedyHits == 0 || exactHits < greedyHits {
		t.Errorf("hits: greedy %d, exact %d (exact must dominate)", greedyHits, exactHits)
	}
}

// TestQuickSimpleAgreesWithExact: for simple expressions the paper's
// pairwise algorithms are exact; they must agree with the automaton.
func TestQuickSimpleAgreesWithExact(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		s1 := randomXPE(r, 5)
		s2 := randomXPE(r, 5)
		if !s1.IsSimple() || !s2.IsSimple() {
			continue
		}
		if got, want := Covers(s1, s2), CoversExact(s1, s2); got != want {
			t.Fatalf("Covers(%s, %s) = %v, exact = %v", s1, s2, got, want)
		}
	}
}

// TestQuickAbsoluteSimpleAgreesWithExact: an absolute simple s1 against a
// relative or descendant-bearing s2 is decided in O(n); it must agree with
// the automaton.
func TestQuickAbsoluteSimpleAgreesWithExact(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	checked, covering := 0, 0
	for i := 0; i < 40000; i++ {
		s1, s2 := randomXPE(r, 4), randomXPE(r, 6)
		if s1.Relative || !s1.IsSimple() || (s2.IsSimple() && !s2.Relative) {
			continue
		}
		checked++
		got, want := Covers(s1, s2), CoversExact(s1, s2)
		if got != want {
			t.Fatalf("Covers(%s, %s) = %v, exact = %v", s1, s2, got, want)
		}
		if got {
			covering++
		}
	}
	if checked < 2000 || covering < 50 {
		t.Errorf("only %d pairs checked, %d covering; workload too sparse", checked, covering)
	}
}

// TestQuickSignatureIsNecessary: a covering pair's signatures nest, which is
// what lets the subscription tree's scans skip a pair on one AND.
func TestQuickSignatureIsNecessary(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 20000; i++ {
		s1, s2 := randomXPE(r, 5), randomXPE(r, 5)
		if Covers(s1, s2) && Signature(s1)&^Signature(s2) != 0 {
			t.Fatalf("Covers(%s, %s) but Signature %b is not within %b", s1, s2, Signature(s1), Signature(s2))
		}
	}
}

// TestQuickCoveringPartialOrder: covering is reflexive and transitive.
func TestQuickCoveringPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 4000; i++ {
		s1 := randomXPE(r, 4)
		if !Covers(s1, s1) {
			t.Fatalf("Covers(%s, %s) should be reflexive", s1, s1)
		}
		s2 := randomXPE(r, 4)
		s3 := randomXPE(r, 4)
		if Covers(s1, s2) && Covers(s2, s3) && !Covers(s1, s3) {
			t.Fatalf("covering not transitive: %s ⊒ %s ⊒ %s", s1, s2, s3)
		}
	}
}

func BenchmarkAbsSimCov(b *testing.B) {
	s1 := xp("/a/*/c/d/e")
	s2 := xp("/a/b/c/d/e/f/g")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AbsSimCov(s1, s2)
	}
}

func BenchmarkCoversExact(b *testing.B) {
	s1 := xp("/a/*//*/d")
	s2 := xp("/a//b/c/d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoversExact(s1, s2)
	}
}
