package oracle

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestSelects pins the definition on hand-checked cases, predicates
// included.
func TestSelects(t *testing.T) {
	a1 := map[string]string{"x": "1"}
	for _, tc := range []struct {
		expr, path string // path '/'-joined
		attrs      []map[string]string
		preds      bool
		want       bool
	}{
		{"/a", "a", nil, false, true},
		{"/a", "a/b", nil, false, true}, // selects the a node, which exists
		{"/a", "b/a", nil, false, false},
		{"/a/b", "a/c/b", nil, false, false},
		{"/a/*", "a/x/y", nil, false, true},
		{"/a//c", "a/c", nil, false, true}, // zero-gap descendant
		{"/a//c", "c/a", nil, false, false},
		{"//c", "a/b/c", nil, false, true},
		{"b/c", "a/b/c", nil, false, true},
		{"b/c", "a/b/d", nil, false, false},
		{"/a/b//d//f", "a/b/c/d/e/f", nil, false, true},
		{"/a/b//d//f", "a/b/c/e/f", nil, false, false},
		{"/a/b/c/d", "a/b/c", nil, false, false},
		{"*", "anything", nil, false, true},
		{"/a", "", nil, false, false},
		{"/a[@x='1']/b", "a/b", []map[string]string{a1, nil}, true, true},
		{"/a[@x='1']/b", "a/b", []map[string]string{nil, a1}, true, false},
		{"/a[@x='1']/b", "a/b", nil, true, false},
		{"/a[@x='1']/b", "a/b", nil, false, true}, // predicates ignored
		{"//a[@x='1']", "a/a", []map[string]string{nil, a1}, true, true},
		{"//a[@x='1'][@y='2']", "a", []map[string]string{a1}, true, false},
	} {
		var path []string
		if tc.path != "" {
			path = strings.Split(tc.path, "/")
		}
		if got := Selects(xpath.MustParse(tc.expr), path, tc.attrs, tc.preds); got != tc.want {
			t.Errorf("Selects(%s, %v, %v, %v) = %v, want %v", tc.expr, path, tc.attrs, tc.preds, got, tc.want)
		}
	}
	if Selects(xpath.New(false), []string{"a"}, nil, false) {
		t.Error("an expression without steps selected a node")
	}
}

func TestFlatAndFlatDoc(t *testing.T) {
	xs := []*xpath.XPE{
		xpath.MustParse("/r/a"), xpath.MustParse("//b[@k='v']"),
		xpath.MustParse("/r/c"), xpath.MustParse("//b"),
	}
	if got := Flat(xs, []string{"r", "a", "b"}, nil, false); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("Flat structural = %v", got)
	}
	if got := Flat(xs, []string{"r", "a", "b"}, nil, true); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("Flat with predicates = %v", got)
	}
	doc, err := xmldoc.Parse([]byte(`<r><a><b k="v"/></a><c/></r>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := FlatDoc(xs, doc); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Errorf("FlatDoc = %v", got)
	}
}

func TestNames(t *testing.T) {
	path := append(symtab.InternPath([]string{"oracle-a"}), symtab.None)
	if got := Names(path); !reflect.DeepEqual(got, []string{"oracle-a", ""}) {
		t.Fatalf("Names = %q", got)
	}
}

// TestWalkPrunes: Walk visits exactly the matching nodes and never tests a
// node below one that failed; Any tests only the top level.
func TestWalkPrunes(t *testing.T) {
	tr := subtree.New()
	for _, s := range []string{"/a", "/a/b", "/a/b/c", "/x", "/x/y"} {
		tr.Insert(xpath.MustParse(s))
	}
	path := []string{"a", "b"}
	var tested, visited []string
	Walk(tr, func(x *xpath.XPE) bool {
		tested = append(tested, x.String())
		return Selects(x, path, nil, false)
	}, func(n *subtree.Node) { visited = append(visited, n.XPE.String()) })
	sort.Strings(tested)
	sort.Strings(visited)
	if want := []string{"/a", "/a/b", "/a/b/c", "/x"}; !reflect.DeepEqual(tested, want) {
		t.Errorf("tested %v, want %v (/x/y lies under a failing node)", tested, want)
	}
	if want := []string{"/a", "/a/b"}; !reflect.DeepEqual(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}

	var top []string
	found := Any(tr, func(x *xpath.XPE) bool {
		top = append(top, x.String())
		return false
	})
	sort.Strings(top)
	if found || !reflect.DeepEqual(top, []string{"/a", "/x"}) {
		t.Errorf("Any = %v after testing %v, want false after the top level", found, top)
	}
	if !Any(tr, func(x *xpath.XPE) bool { return Selects(x, []string{"x", "y"}, nil, false) }) {
		t.Error("Any missed /x")
	}
}
