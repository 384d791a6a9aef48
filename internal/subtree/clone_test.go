package subtree

import (
	"reflect"
	"testing"

	"repro/internal/xpath"
)

// buildCloneFixture returns a tree with covering depth, payloads, and a
// hand-wired super pointer (Insert adopts every covered top-level node as a
// child, so cross-subtree super pointers are constructed directly here —
// CloneWithData must remap them whenever they exist).
func buildCloneFixture(t *testing.T) (*Tree, *Node, *Node) {
	t.Helper()
	tr := New()
	top := tr.Insert(xpath.MustParse("/a")).Node
	mid := tr.Insert(xpath.MustParse("/a/b")).Node
	leaf := tr.Insert(xpath.MustParse("/a/b/c")).Node
	other := tr.Insert(xpath.MustParse("/x/y")).Node
	top.Data = []string{"h1", "h2"}
	mid.Data = []string{"h3"}
	leaf.Data = map[string]bool{"h4": true}
	// Wire mid -> other as a super pointer (a covering relation crossing
	// subtree boundaries).
	mid.super = append(mid.super, other)
	other.superRefs = append(other.superRefs, mid)
	tr.superEdges++ // what Insert would have counted
	return tr, mid, other
}

func TestCloneWithDataPreservesStructureAndSuperPointers(t *testing.T) {
	tr, mid, other := buildCloneFixture(t)
	clone := tr.CloneWithData(nil)

	if clone.Size() != tr.Size() {
		t.Fatalf("clone size %d, want %d", clone.Size(), tr.Size())
	}
	n1, e1, s1 := tr.Stats()
	n2, e2, s2 := clone.Stats()
	if n1 != n2 || e1 != e2 || s1 != s2 {
		t.Fatalf("stats diverge: orig (%d,%d,%d) clone (%d,%d,%d)", n1, e1, s1, n2, e2, s2)
	}
	if s2 != 1 {
		t.Fatalf("super edges = %d, want the wired one", s2)
	}

	cmid := clone.Lookup(mid.XPE)
	cother := clone.Lookup(other.XPE)
	if cmid == nil || cother == nil {
		t.Fatal("clone index must resolve every expression")
	}
	if cmid == mid || cother == other {
		t.Fatal("clone shares node identity with the original")
	}
	// Super pointers must be REMAPPED into the clone, not aliased.
	if len(cmid.Super()) != 1 || cmid.Super()[0] != cother {
		t.Fatalf("clone super pointer = %v, want the clone's own node", cmid.Super())
	}
	if len(cother.superRefs) != 1 || cother.superRefs[0] != cmid {
		t.Fatal("clone superRefs must point at clone nodes")
	}
	// Parent/child wiring is remapped too.
	if cmid.Parent() == nil || cmid.Parent() == mid.Parent() {
		t.Fatal("clone parent must be the clone's own node")
	}
	if cmid.Parent().XPE.String() != "/a" {
		t.Fatalf("clone parent = %s", cmid.Parent().XPE)
	}
	// Expressions are shared (immutable), Data carried over by nil mapData.
	if cmid.XPE != mid.XPE {
		t.Fatal("expressions should be shared pointers")
	}
	if !reflect.DeepEqual(cmid.Data, mid.Data) {
		t.Fatalf("Data not carried over: %v vs %v", cmid.Data, mid.Data)
	}
}

func TestCloneWithDataMapsData(t *testing.T) {
	tr, _, _ := buildCloneFixture(t)
	clone := tr.CloneWithData(func(n *Node) any {
		if hops, ok := n.Data.([]string); ok {
			return len(hops)
		}
		return nil
	})
	var got []any
	clone.Walk(func(n *Node) { got = append(got, n.Data) })
	counts := map[any]int{}
	for _, d := range got {
		counts[d]++
	}
	// /a -> 2 hops, /a/b -> 1 hop, the map payload and the plain node -> nil.
	if counts[2] != 1 || counts[1] != 1 || counts[nil] != 2 {
		t.Fatalf("mapped data distribution %v", counts)
	}
	// The original keeps its payloads untouched.
	orig := 0
	tr.Walk(func(n *Node) {
		if _, ok := n.Data.([]string); ok {
			orig++
		}
	})
	if orig != 2 {
		t.Fatalf("original payloads disturbed: %d", orig)
	}
}

func TestCloneWithDataDeepCopyIndependence(t *testing.T) {
	tr, mid, _ := buildCloneFixture(t)
	clone := tr.CloneWithData(nil)
	sizeBefore := clone.Size()
	superBefore := len(clone.Lookup(mid.XPE).Super())

	// Mutate the original in every structural way: insert, remove (which
	// also drops the wired super pointer), and payload writes.
	tr.Insert(xpath.MustParse("/a/b/c/d"))
	tr.Remove(tr.Lookup(xpath.MustParse("/x/y")))
	mid.Data = []string{"overwritten"}

	if clone.Size() != sizeBefore {
		t.Fatalf("clone size changed to %d after original mutation", clone.Size())
	}
	if clone.Lookup(xpath.MustParse("/a/b/c/d")) != nil {
		t.Fatal("insert into original leaked into clone")
	}
	if clone.Lookup(xpath.MustParse("/x/y")) == nil {
		t.Fatal("remove from original leaked into clone")
	}
	if got := len(clone.Lookup(mid.XPE).Super()); got != superBefore {
		t.Fatalf("clone super pointers changed: %d -> %d", superBefore, got)
	}
	if got := clone.Lookup(mid.XPE).Data.([]string); got[0] != "h3" {
		t.Fatalf("payload write leaked into clone: %v", got)
	}
	// And the other direction: mutating the clone leaves the original alone.
	clone.Remove(clone.Lookup(xpath.MustParse("/a/b/c")))
	if tr.Lookup(xpath.MustParse("/a/b/c")) == nil {
		t.Fatal("clone removal leaked into original")
	}
}
