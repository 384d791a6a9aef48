package subtree_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// The tests in this package's external files hold the covering order to
// the property the paper's router relies on: walking the tree with
// oracle.Walk, which skips the subtree of every node that fails to match,
// finds exactly what a flat scan finds. They live outside package subtree
// because internal/oracle imports it.

func xp(s string) *xpath.XPE { return xpath.MustParse(s) }

// selects is the reference predicate on an element-name path.
func selects(path []string) func(*xpath.XPE) bool {
	return func(x *xpath.XPE) bool { return oracle.Selects(x, path, nil, false) }
}

func TestMatchPath(t *testing.T) {
	tr := subtree.New()
	for _, s := range []string{"/a", "/a/b", "/a/c", "/x/y", "b/c"} {
		tr.Insert(xp(s))
	}
	var got []string
	oracle.Walk(tr, selects([]string{"a", "b", "z"}), func(n *subtree.Node) {
		got = append(got, n.XPE.String())
	})
	sort.Strings(got)
	if strings.Join(got, " ") != "/a /a/b" {
		t.Fatalf("Walk = %v", got)
	}
	if !oracle.Any(tr, selects([]string{"a", "b", "c"})) {
		t.Error("Any missed a/b/c")
	}
	if oracle.Any(tr, selects([]string{"q"})) {
		t.Error("Any matched q")
	}
}

// TestQuickMatchEquivalence: covering-pruned matching returns exactly the
// subscriptions a linear scan finds.
func TestQuickMatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	tr := subtree.New()
	var all []*xpath.XPE
	for i := 0; i < 400; i++ {
		res := tr.Insert(subtree.RandomXPE(r, 4))
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
		for _, j := range oracle.Flat(all, path, nil, false) {
			want[all[j].Key()] = true
		}
		got := make(map[string]bool)
		oracle.Walk(tr, selects(path), func(n *subtree.Node) { got[n.XPE.Key()] = true })
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

// TestQuickCoveredSafety: for any publication matching a covered
// subscription, some top-level subscription also matches — dropping
// covered subscriptions from forwarding loses nothing.
func TestQuickCoveredSafety(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	tr := subtree.New()
	for i := 0; i < 300; i++ {
		tr.Insert(subtree.RandomXPE(r, 4))
	}
	alphabet := []string{"a", "b", "c", "d"}
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(8)
		path := make([]string, n)
		for j := range path {
			path[j] = alphabet[r.Intn(len(alphabet))]
		}
		anyMatch := false
		tr.Walk(func(nd *subtree.Node) {
			if oracle.Selects(nd.XPE, path, nil, false) {
				anyMatch = true
			}
		})
		if anyMatch && !oracle.Any(tr, selects(path)) {
			t.Fatalf("path %v matches a stored subscription but no top-level one", path)
		}
	}
}
