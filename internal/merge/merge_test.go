package merge

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/advert"
	"repro/internal/dtddata"
	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

func xp(s string) *xpath.XPE { return xpath.MustParse(s) }

// sel is the reference: does x select a node on path.
func sel(x *xpath.XPE, path []string) bool { return oracle.Selects(x, path, nil, false) }

func TestMergePositionwiseRule1(t *testing.T) {
	// Paper example: a/*/c/d and a/*/c/e merge to a/*/c/*.
	m, rule, ok := MergePositionwise([]*xpath.XPE{xp("a/*/c/d"), xp("a/*/c/e")}, 1, 0)
	if !ok || rule != RuleElement {
		t.Fatalf("merge failed: ok=%v rule=%v", ok, rule)
	}
	if m.String() != "a/*/c/*" {
		t.Errorf("merger = %s, want a/*/c/*", m)
	}
	// Figure 5: /a/b/a, /a/b/b, /a/b/d merge to /a/b/*.
	m, _, ok = MergePositionwise([]*xpath.XPE{xp("/a/b/a"), xp("/a/b/b"), xp("/a/b/d")}, 1, 0)
	if !ok || m.String() != "/a/b/*" {
		t.Errorf("three-way merger = %v (%v)", m, ok)
	}
}

func TestMergePositionwiseRule2(t *testing.T) {
	// Paper example: /a/c/*/* and /a//c/*/c merge to /a//c/*/*.
	m, rule, ok := MergePositionwise([]*xpath.XPE{xp("/a/c/*/*"), xp("/a//c/*/c")}, 1, 1)
	if !ok || rule != RuleOperator {
		t.Fatalf("merge failed: ok=%v rule=%v m=%v", ok, rule, m)
	}
	if m.String() != "/a//c/*/*" {
		t.Errorf("merger = %s, want /a//c/*/*", m)
	}
}

func TestMergePositionwiseRejections(t *testing.T) {
	tests := []struct {
		name string
		xpes []string
		e, o int
	}{
		{"covering pair", []string{"/a/b", "/a/*"}, 1, 1},
		{"identical", []string{"/a/b", "/a/b"}, 1, 1},
		{"different lengths", []string{"/a/b", "/a/b/c"}, 1, 1},
		{"different relativity", []string{"a/b", "/a/b"}, 1, 1},
		{"two element diffs", []string{"/a/b/c", "/a/x/y"}, 1, 1},
		{"op diff not allowed", []string{"/a/x/c", "/a/y//c"}, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			xpes := make([]*xpath.XPE, len(tt.xpes))
			for i, s := range tt.xpes {
				xpes[i] = xp(s)
			}
			if _, _, ok := MergePositionwise(xpes, tt.e, tt.o); ok {
				t.Error("merge unexpectedly succeeded")
			}
		})
	}
}

func TestMergeInfix(t *testing.T) {
	// Rule 3: common prefix and suffix, differing middles replaced by "//".
	m, ok := MergeInfix(xp("/a/b/x/y/c/d"), xp("/a/b/q/c/d"), 4)
	if !ok {
		t.Fatal("infix merge failed")
	}
	if m.String() != "/a/b//c/d" {
		t.Errorf("merger = %s, want /a/b//c/d", m)
	}
	// Not enough common material.
	if _, ok := MergeInfix(xp("/a/x/y/z/q"), xp("/a/m/q"), 4); ok {
		t.Error("infix merge with too little common material succeeded")
	}
	// No differing middle: covering territory.
	if _, ok := MergeInfix(xp("/a/b/c"), xp("/a/b/c"), 2); ok {
		t.Error("identical expressions merged")
	}
}

// TestMergerCoversSources: any merger must cover each of its sources (its
// publication set contains theirs) — checked semantically on random paths.
func TestQuickMergerCoversSources(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	alphabet := []string{"a", "b", "c", "d"}
	randXPE := func() *xpath.XPE {
		n := 2 + r.Intn(4)
		s := &xpath.XPE{Relative: r.Intn(2) == 0}
		for i := 0; i < n; i++ {
			axis := xpath.Child
			if (i > 0 || !s.Relative) && r.Intn(5) == 0 {
				axis = xpath.Descendant
			}
			name := alphabet[r.Intn(len(alphabet))]
			if r.Intn(4) == 0 {
				name = xpath.Wildcard
			}
			s.Steps = append(s.Steps, xpath.Step{Axis: axis, Name: name})
		}
		return s
	}
	merges := 0
	for i := 0; i < 20000 && merges < 1500; i++ {
		s1, s2 := randXPE(), randXPE()
		m, _, ok := MergePositionwise([]*xpath.XPE{s1, s2}, 1, 1)
		if !ok {
			continue
		}
		merges++
		for j := 0; j < 30; j++ {
			n := 1 + r.Intn(8)
			p := make([]string, n)
			for k := range p {
				p[k] = alphabet[r.Intn(len(alphabet))]
			}
			if (sel(s1, p) || sel(s2, p)) && !sel(m, p) {
				t.Fatalf("merger %s of %s, %s misses path %v", m, s1, s2, p)
			}
		}
	}
	if merges < 100 {
		t.Errorf("only %d merges sampled", merges)
	}
}

func TestQuickInfixMergerCoversSources(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	alphabet := []string{"a", "b", "c"}
	randAbs := func() *xpath.XPE {
		n := 4 + r.Intn(4)
		s := &xpath.XPE{}
		for i := 0; i < n; i++ {
			s.Steps = append(s.Steps, xpath.Step{Axis: xpath.Child, Name: alphabet[r.Intn(len(alphabet))]})
		}
		return s
	}
	merges := 0
	for i := 0; i < 30000 && merges < 800; i++ {
		s1, s2 := randAbs(), randAbs()
		m, ok := MergeInfix(s1, s2, 3)
		if !ok {
			continue
		}
		merges++
		for j := 0; j < 20; j++ {
			n := 1 + r.Intn(10)
			p := make([]string, n)
			for k := range p {
				p[k] = alphabet[r.Intn(len(alphabet))]
			}
			if (sel(s1, p) || sel(s2, p)) && !sel(m, p) {
				t.Fatalf("infix merger %s of %s, %s misses path %v", m, s1, s2, p)
			}
		}
	}
	if merges < 50 {
		t.Errorf("only %d infix merges sampled", merges)
	}
}

func TestDegreeEstimator(t *testing.T) {
	advs, err := advert.Generate(dtddata.PSD())
	if err != nil {
		t.Fatal(err)
	}
	est := NewDegreeEstimator(advs, 10, 10000)
	if len(est.universe) == 0 {
		t.Fatal("empty universe")
	}
	// /ProteinDatabase/ProteinEntry/protein/name and .../alt-name merged to
	// .../*: protein has 3 children, so the merger admits 1 extra path out
	// of 3 — the paper's "false positives at the merged position" example.
	m := &Merger{
		Result: xp("/ProteinDatabase/ProteinEntry/protein/*"),
		Sources: []*xpath.XPE{
			xp("/ProteinDatabase/ProteinEntry/protein/name"),
			xp("/ProteinDatabase/ProteinEntry/protein/alt-name"),
		},
	}
	got := est.Degree(m)
	if got < 0.3 || got > 0.37 {
		t.Errorf("degree = %.2f, want 1/3", got)
	}
	// A merger absorbing all three children is perfect.
	perfect := &Merger{
		Result: xp("/ProteinDatabase/ProteinEntry/protein/*"),
		Sources: []*xpath.XPE{
			xp("/ProteinDatabase/ProteinEntry/protein/name"),
			xp("/ProteinDatabase/ProteinEntry/protein/alt-name"),
			xp("/ProteinDatabase/ProteinEntry/protein/contains"),
		},
	}
	if got := est.Degree(perfect); got != 0 {
		t.Errorf("perfect merger degree = %.3f, want 0", got)
	}
}

func TestPassPerfectOnly(t *testing.T) {
	advs, err := advert.Generate(dtddata.PSD())
	if err != nil {
		t.Fatal(err)
	}
	est := NewDegreeEstimator(advs, 10, 10000)
	tr := subtree.New()
	prefix := "/ProteinDatabase/ProteinEntry/protein/"
	for _, leaf := range []string{"name", "alt-name", "contains"} {
		tr.Insert(xp(prefix + leaf))
	}
	before := tr.Size()
	mergers := Pass(tr, Options{MaxDegree: 0, Estimator: est})
	if len(mergers) != 1 {
		t.Fatalf("mergers = %d, want 1", len(mergers))
	}
	if mergers[0].Result.String() != prefix+"*" {
		t.Errorf("merger = %s", mergers[0].Result)
	}
	if mergers[0].Degree != 0 {
		t.Errorf("degree = %.3f", mergers[0].Degree)
	}
	if tr.Size() != before-2 {
		t.Errorf("tree size %d, want %d", tr.Size(), before-2)
	}
}

func TestPassRespectsDegreeGate(t *testing.T) {
	advs, err := advert.Generate(dtddata.PSD())
	if err != nil {
		t.Fatal(err)
	}
	est := NewDegreeEstimator(advs, 10, 10000)
	tr := subtree.New()
	// Only two of the three protein children: imperfect (degree 1/3).
	tr.Insert(xp("/ProteinDatabase/ProteinEntry/protein/name"))
	tr.Insert(xp("/ProteinDatabase/ProteinEntry/protein/alt-name"))
	if got := Pass(tr, Options{MaxDegree: 0, Estimator: est}); len(got) != 0 {
		t.Fatalf("perfect-only pass merged an imperfect candidate (degree %.2f)", got[0].Degree)
	}
	got := Pass(tr, Options{MaxDegree: 0.4, Estimator: est})
	if len(got) != 1 {
		t.Fatalf("tolerant pass found %d mergers", len(got))
	}
}

func TestPassToFixpointCascades(t *testing.T) {
	tr := subtree.New()
	// Merging /a/b/{x,y} and /a/c/{x,y} yields /a/b/* and /a/c/*, which can
	// then merge to /a/*/* — only reachable through a second pass.
	for _, s := range []string{"/a/b/x", "/a/b/y", "/a/c/x", "/a/c/y"} {
		tr.Insert(xp(s))
	}
	mergers := PassToFixpoint(tr, Options{MaxDegree: 1})
	if len(mergers) < 3 {
		t.Fatalf("fixpoint applied %d mergers, want >= 3", len(mergers))
	}
	if tr.Lookup(xp("/a/*/*")) == nil {
		t.Errorf("cascaded merger missing:\n%s", tr)
	}
}

// TestImperfectMergingProperty pins the paper's imperfect merging (Fig. 9)
// to the reference semantics over the estimator's universe U. For a merger
// m, let P(m) be the paths of U that m selects and extra(m) those none of
// its sources selects: Degree(m)·|P(m)| must equal |extra(m)|. After
// PassToFixpoint at degree d, every applied merger has Degree <= d, and
// every path the merged table selects that no original subscription
// selects lies in some applied merger's extra set — merging admits no
// false positive it did not account for.
func TestImperfectMergingProperty(t *testing.T) {
	advs, err := advert.Generate(dtddata.NITF())
	if err != nil {
		t.Fatal(err)
	}
	est := NewDegreeEstimator(advs, 10, 2000)
	universe := make([][]string, len(est.universe))
	for i, p := range est.universe {
		universe[i] = oracle.Names(p)
	}
	// extra returns the indices of the universe paths m admits beyond its
	// sources, and |P(m)|.
	extra := func(m *Merger) (map[int]bool, int) {
		out, matched := map[int]bool{}, 0
	paths:
		for i, p := range universe {
			if !sel(m.Result, p) {
				continue
			}
			matched++
			for _, s := range m.Sources {
				if sel(s, p) {
					continue paths
				}
			}
			out[i] = true
		}
		return out, matched
	}

	// The subscriptions are every 5th universe path of at least five elements,
	// written as an absolute expression: sibling leaves merge into parent/*,
	// which admits the unsampled siblings too.
	var subs []*xpath.XPE
	for i := 0; i < len(universe); i += 5 {
		if len(universe[i]) < 5 {
			continue
		}
		steps := make([]xpath.Step, len(universe[i]))
		for k, name := range universe[i] {
			steps[k] = xpath.Step{Axis: xpath.Child, Name: name}
		}
		subs = append(subs, xpath.New(false, steps...))
	}

	imperfect := 0
	for i := 0; i < len(subs); i++ {
		for j := i + 1; j < len(subs); j++ {
			res, _, ok := MergePositionwise([]*xpath.XPE{subs[i], subs[j]}, 1, 1)
			if !ok {
				continue
			}
			m := &Merger{Result: res, Sources: []*xpath.XPE{subs[i], subs[j]}}
			ex, matched := extra(m)
			deg := est.Degree(m)
			if math.Abs(deg*float64(matched)-float64(len(ex))) > 1e-6 {
				t.Fatalf("merger %s of %s, %s: Degree %.4f × |P(m)| %d != %d extra paths",
					res, subs[i], subs[j], deg, matched, len(ex))
			}
			if len(ex) > 0 {
				imperfect++
			}
		}
	}
	if imperfect < 10 {
		t.Fatalf("only %d imperfect mergers sampled", imperfect)
	}

	const d = 0.3
	tr := subtree.New()
	for _, x := range subs {
		tr.Insert(x)
	}
	applied := PassToFixpoint(tr, Options{MaxDegree: d, Estimator: est})
	if len(applied) == 0 {
		t.Fatal("no merger applied")
	}
	accounted := map[int]bool{}
	for _, m := range applied {
		if m.Degree > d {
			t.Errorf("applied merger %s has degree %.3f > %.1f", m.Result, m.Degree, d)
		}
		ex, _ := extra(m)
		for i := range ex {
			accounted[i] = true
		}
	}
	beyond := 0
	var table []*xpath.XPE
	tr.Walk(func(n *subtree.Node) { table = append(table, n.XPE) })
	for i, p := range universe {
		if len(oracle.Flat(table, p, nil, false)) == 0 || len(oracle.Flat(subs, p, nil, false)) > 0 {
			continue
		}
		beyond++
		if !accounted[i] {
			t.Fatalf("merged table selects %v, which no subscription and no merger's extra set does", p)
		}
	}
	if beyond == 0 {
		t.Fatal("merging admitted no path beyond the subscriptions; the check is vacuous")
	}
}

func BenchmarkDegree(b *testing.B) {
	advs, err := advert.Generate(dtddata.NITF())
	if err != nil {
		b.Fatal(err)
	}
	est := NewDegreeEstimator(advs, 10, 5000)
	m := &Merger{
		Result:  xp("/nitf/body/body.content/block/*"),
		Sources: []*xpath.XPE{xp("/nitf/body/body.content/block/p"), xp("/nitf/body/body.content/block/pre")},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Degree(m)
	}
}
