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

// TestSuperPointers checks the case the paper's super pointers exist for:
// a new subscription covering nodes in several top-level subtrees. An
// uncovered insert adopts every top-level node it covers, so no covering
// relation crosses subtrees and no super pointer is needed.
func TestSuperPointers(t *testing.T) {
	tr := New()
	// Two incomparable top-level nodes both covered by a later wildcard one.
	tr.Insert(xp("/a/b/c"))
	tr.Insert(xp("/x/b/d"))
	res := tr.Insert(xp("*/b"))
	if res.Covered {
		t.Fatal("*/b should not be covered")
	}
	// */b covers both: both are adopted and reported as newly covered.
	if got := keys(res.NewlyCovered); strings.Join(got, " ") != "/a/b/c /x/b/d" {
		t.Fatalf("NewlyCovered = %v", got)
	}
	if got := keys(res.Node.Children()); strings.Join(got, " ") != "/a/b/c /x/b/d" {
		t.Fatalf("children = %v, want both covered top-level nodes", got)
	}
	if got := keys(tr.TopLevel()); strings.Join(got, " ") != "*/b" {
		t.Fatalf("top level = %v, want only */b", got)
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

// TestRemoveDropsSuperPointers removes one of the nodes a later insert
// adopted from another top-level subtree: the coverer keeps only the other.
func TestRemoveDropsSuperPointers(t *testing.T) {
	tr := New()
	tr.Insert(xp("/a/b/c"))
	tr.Insert(xp("/x/b/d"))
	res := tr.Insert(xp("*/b"))
	if len(res.Node.Children()) != 2 {
		t.Fatalf("children = %v, want both covered top-level nodes", keys(res.Node.Children()))
	}
	tr.Remove(tr.Lookup(xp("/a/b/c")))
	if got := keys(res.Node.Children()); strings.Join(got, " ") != "/x/b/d" {
		t.Fatalf("children after remove = %v", got)
	}
	checkInvariants(t, tr)
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
// children, the index is consistent, size matches, and the O(1) Stats agree
// with a walk.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	count, edges := 0, 0
	tr.Walk(func(n *Node) {
		count++
		edges += len(n.Children())
		if got := tr.Lookup(n.XPE); got != n {
			t.Fatalf("index inconsistent for %s", n.XPE)
		}
		if p := n.Parent(); p != nil && !cover.Covers(p.XPE, n.XPE) {
			t.Fatalf("parent %s does not cover child %s", p.XPE, n.XPE)
		}
	})
	if count != tr.Size() {
		t.Fatalf("walked %d nodes, Size = %d", count, tr.Size())
	}
	if n, e := tr.Stats(); n != count || e != edges {
		t.Fatalf("Stats = %d/%d, walked %d/%d", n, e, count, edges)
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
