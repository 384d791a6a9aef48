package subtree

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/xpath"
)

func xp(s string) *xpath.XPE { return xpath.MustParse(s) }

func keys(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.XPE.String()
	}
	sort.Strings(out)
	return out
}

func TestInsertHierarchy(t *testing.T) {
	tr := New()
	// Insert from the paper's Figure 4 vocabulary.
	for _, s := range []string{"/a", "/a/b", "/a/b/a", "/a/c", "/a/b/b"} {
		res := tr.Insert(xp(s))
		if res.Duplicate {
			t.Fatalf("unexpected duplicate for %s", s)
		}
	}
	if tr.Size() != 5 {
		t.Fatalf("Size = %d", tr.Size())
	}
	// /a is top level; everything else sits under it.
	top := keys(tr.TopLevel())
	if strings.Join(top, " ") != "/a" {
		t.Fatalf("TopLevel = %v", top)
	}
	a := tr.Lookup(xp("/a"))
	if got := keys(a.Children()); strings.Join(got, " ") != "/a/b /a/c" {
		t.Fatalf("children of /a = %v", got)
	}
	ab := tr.Lookup(xp("/a/b"))
	if got := keys(ab.Children()); strings.Join(got, " ") != "/a/b/a /a/b/b" {
		t.Fatalf("children of /a/b = %v", got)
	}
	if ab.Parent() != a {
		t.Error("parent of /a/b should be /a")
	}
	if a.Parent() != nil {
		t.Error("top-level node should have nil Parent")
	}
}

func TestInsertCoveringArrivesLater(t *testing.T) {
	tr := New()
	r1 := tr.Insert(xp("/a/b/c"))
	r2 := tr.Insert(xp("/a/b/d"))
	if r1.Covered || r2.Covered {
		t.Fatal("independent subscriptions misreported as covered")
	}
	// The covering subscription arrives after the covered ones (case 2).
	res := tr.Insert(xp("/a/b"))
	if res.Covered {
		t.Fatal("/a/b is not covered")
	}
	if got := keys(res.NewlyCovered); strings.Join(got, " ") != "/a/b/c /a/b/d" {
		t.Fatalf("NewlyCovered = %v", got)
	}
	if got := keys(res.Node.Children()); strings.Join(got, " ") != "/a/b/c /a/b/d" {
		t.Fatalf("adopted children = %v", got)
	}
	if len(tr.TopLevel()) != 1 {
		t.Fatalf("TopLevel = %v", keys(tr.TopLevel()))
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New()
	first := tr.Insert(xp("/a/b"))
	dup := tr.Insert(xp("/a/b"))
	if !dup.Duplicate || dup.Node != first.Node {
		t.Fatal("duplicate not detected")
	}
	if tr.Size() != 1 {
		t.Fatalf("Size = %d", tr.Size())
	}
}

func TestSuperPointers(t *testing.T) {
	tr := New()
	// Two incomparable top-level nodes both covered by a later wildcard one.
	tr.Insert(xp("/a/b/c"))
	tr.Insert(xp("/x/b/d"))
	res := tr.Insert(xp("*/b"))
	if res.Covered {
		t.Fatal("*/b should not be covered")
	}
	// */b covers both: one may be adopted, the rest via super pointers; all
	// must be reported as newly covered.
	if got := keys(res.NewlyCovered); strings.Join(got, " ") != "/a/b/c /x/b/d" {
		t.Fatalf("NewlyCovered = %v", got)
	}
	total := len(res.Node.Children()) + len(res.Node.Super())
	if total != 2 {
		t.Fatalf("children+super = %d, want 2", total)
	}
}

func TestIsCovered(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a"))
	if !tr.IsCovered(xp("/a/b")) {
		t.Error("/a/b should be covered by /a")
	}
	if !tr.IsCovered(xp("/a")) {
		t.Error("exact duplicate counts as covered")
	}
	if tr.IsCovered(xp("/b")) {
		t.Error("/b is not covered")
	}
}

func TestCoveredByQuery(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a/b"))
	tr.Insert(xp("/a/c"))
	tr.Insert(xp("/x"))
	got := keys(tr.CoveredBy(xp("/a")))
	if strings.Join(got, " ") != "/a/b /a/c" {
		t.Fatalf("CoveredBy(/a) = %v", got)
	}
}

func TestRemoveSplicesChildren(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a"))
	tr.Insert(xp("/a/b"))
	tr.Insert(xp("/a/b/c"))
	n := tr.Lookup(xp("/a/b"))
	tr.Remove(n)
	if tr.Size() != 2 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if tr.Lookup(xp("/a/b")) != nil {
		t.Fatal("removed node still indexed")
	}
	a := tr.Lookup(xp("/a"))
	if got := keys(a.Children()); strings.Join(got, " ") != "/a/b/c" {
		t.Fatalf("children after splice = %v", got)
	}
	if tr.Lookup(xp("/a/b/c")).Parent() != a {
		t.Fatal("spliced child has wrong parent")
	}
	// Removing twice is a no-op.
	tr.Remove(n)
	if tr.Size() != 2 {
		t.Fatal("double remove changed size")
	}
}

func TestRemoveDropsSuperPointers(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a/b/c"))
	tr.Insert(xp("/x/b/d"))
	res := tr.Insert(xp("*/b"))
	var target *Node
	if len(res.Node.Super()) > 0 {
		target = res.Node.Super()[0]
	} else {
		t.Skip("layout adopted both nodes as children")
	}
	tr.Remove(target)
	for _, s := range res.Node.Super() {
		if s == target {
			t.Fatal("super pointer to removed node survives")
		}
	}
}

func TestMatchPath(t *testing.T) {
	tr := New()
	for _, s := range []string{"/a", "/a/b", "/a/c", "/x/y", "b/c"} {
		tr.Insert(xp(s))
	}
	var got []string
	tr.MatchPath([]string{"a", "b", "z"}, func(n *Node) {
		got = append(got, n.XPE.String())
	})
	sort.Strings(got)
	if strings.Join(got, " ") != "/a /a/b" {
		t.Fatalf("MatchPath = %v", got)
	}
	if !tr.MatchPathAny([]string{"a", "b", "c"}) {
		t.Error("MatchPathAny missed a/b/c")
	}
	if tr.MatchPathAny([]string{"q"}) {
		t.Error("MatchPathAny matched q")
	}
}

func TestDepthAndString(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a"))
	tr.Insert(xp("/a/b"))
	tr.Insert(xp("/a/b/c"))
	if tr.Depth() != 3 {
		t.Errorf("Depth = %d", tr.Depth())
	}
	s := tr.String()
	if !strings.Contains(s, "/a/b/c") {
		t.Errorf("String = %q", s)
	}
}

func randomXPE(r *rand.Rand, maxLen int) *xpath.XPE {
	alphabet := []string{"a", "b", "c", xpath.Wildcard}
	n := 1 + r.Intn(maxLen)
	s := &xpath.XPE{Relative: r.Intn(4) == 0}
	for i := 0; i < n; i++ {
		axis := xpath.Child
		if (i > 0 || !s.Relative) && r.Intn(5) == 0 {
			axis = xpath.Descendant
		}
		s.Steps = append(s.Steps, xpath.Step{Axis: axis, Name: alphabet[r.Intn(len(alphabet))]})
	}
	return s
}

// checkInvariants verifies the tree's structural invariants: parents cover
// children, the index is consistent, size matches, super pointers are
// symmetric covering relations, and the O(1) Stats agree with a walk.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	count, edges, supers := 0, 0, 0
	tr.Walk(func(n *Node) {
		count++
		edges += len(n.Children())
		supers += len(n.Super())
		if got := tr.Lookup(n.XPE); got != n {
			t.Fatalf("index inconsistent for %s", n.XPE)
		}
		if p := n.Parent(); p != nil && !cover.Covers(p.XPE, n.XPE) {
			t.Fatalf("parent %s does not cover child %s", p.XPE, n.XPE)
		}
		for _, s := range n.Super() {
			if !cover.Covers(n.XPE, s.XPE) {
				t.Fatalf("super pointer %s -> %s without covering", n.XPE, s.XPE)
			}
		}
	})
	if count != tr.Size() {
		t.Fatalf("walked %d nodes, Size = %d", count, tr.Size())
	}
	if n, e, s := tr.Stats(); n != count || e != edges || s != supers {
		t.Fatalf("Stats = %d/%d/%d, walked %d/%d/%d", n, e, s, count, edges, supers)
	}
}

func TestQuickInvariantsUnderInsert(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	tr := New()
	for i := 0; i < 600; i++ {
		tr.Insert(randomXPE(r, 4))
	}
	checkInvariants(t, tr)
}

func TestQuickInvariantsUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	tr := New()
	var live []*Node
	for i := 0; i < 1500; i++ {
		if len(live) > 0 && r.Intn(3) == 0 {
			j := r.Intn(len(live))
			tr.Remove(live[j])
			live = append(live[:j], live[j+1:]...)
			continue
		}
		res := tr.Insert(randomXPE(r, 4))
		if !res.Duplicate {
			live = append(live, res.Node)
		}
	}
	checkInvariants(t, tr)
}

// TestQuickMatchEquivalence: covering-pruned matching returns exactly the
// subscriptions a linear scan finds.
func TestQuickMatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tr := New()
	var all []*xpath.XPE
	for i := 0; i < 400; i++ {
		res := tr.Insert(randomXPE(r, 4))
		if !res.Duplicate {
			all = append(all, res.Node.XPE)
		}
	}
	alphabet := []string{"a", "b", "c", "d"}
	for i := 0; i < 500; i++ {
		n := 1 + r.Intn(8)
		path := make([]string, n)
		for j := range path {
			path[j] = alphabet[r.Intn(len(alphabet))]
		}
		want := make(map[string]bool)
		for _, x := range all {
			if x.MatchesPath(path) {
				want[x.Key()] = true
			}
		}
		got := make(map[string]bool)
		tr.MatchPath(path, func(n *Node) { got[n.XPE.Key()] = true })
		if len(got) != len(want) {
			t.Fatalf("path %v: tree found %d, scan found %d\n%s", path, len(got), len(want), tr)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("path %v: tree missed %s", path, k)
			}
		}
	}
}

// TestQuickCoveredNeverForwardedIsSafe: for any publication matching a
// covered subscription, some top-level subscription also matches — dropping
// covered subscriptions from forwarding loses nothing.
func TestQuickCoveredSafety(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	tr := New()
	for i := 0; i < 300; i++ {
		tr.Insert(randomXPE(r, 4))
	}
	alphabet := []string{"a", "b", "c", "d"}
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(8)
		path := make([]string, n)
		for j := range path {
			path[j] = alphabet[r.Intn(len(alphabet))]
		}
		anyMatch := false
		tr.Walk(func(nd *Node) {
			if nd.XPE.MatchesPath(path) {
				anyMatch = true
			}
		})
		if anyMatch && !tr.MatchPathAny(path) {
			t.Fatalf("path %v matches a stored subscription but no top-level one", path)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	xpes := make([]*xpath.XPE, 10000)
	for i := range xpes {
		xpes[i] = randomXPE(r, 6)
	}
	b.ResetTimer()
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(xpes[i%len(xpes)])
	}
}

func BenchmarkMatchPath(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Insert(randomXPE(r, 6))
	}
	path := []string{"a", "b", "c", "a", "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MatchPath(path, func(*Node) {})
	}
}
