package stream

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/pmatch"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// The differential harness is the correctness centrepiece of the streaming
// matcher: for random workloads (expressions × documents) it asserts that
// three independent evaluation routes produce the SAME verdict set —
//
//	streaming over raw bytes  ≡  decompose-into-paths + pmatch per path
//	                          ≡  per-expression tree-walk oracle
//
// Documents are serialised with randomised decorations (comments, PIs,
// CDATA, entity-encoded text and attribute values, whitespace, quote
// styles) so the raw-byte route exercises the scanner, not just the happy
// path of xmldoc's serialiser.

var diffAlphabet = []string{"a", "b", "c", "d", "e"}

func diffXPE(r *rand.Rand) *xpath.XPE {
	n := 1 + r.Intn(4)
	steps := make([]xpath.Step, n)
	for i := range steps {
		axis := xpath.Child
		if i > 0 && r.Intn(3) == 0 {
			axis = xpath.Descendant
		}
		if i == 0 && r.Intn(5) == 0 {
			axis = xpath.Descendant
		}
		name := diffAlphabet[r.Intn(len(diffAlphabet))]
		if r.Intn(5) == 0 {
			name = xpath.Wildcard
		}
		var preds string
		if r.Intn(6) == 0 {
			preds = xpath.EncodePreds([]xpath.Pred{{Attr: "k", Value: diffAlphabet[r.Intn(2)]}})
		}
		steps[i] = xpath.Step{Axis: axis, Name: name, Preds: preds}
	}
	relative := r.Intn(3) == 0
	if relative {
		steps[0].Axis = xpath.Child
	}
	return xpath.New(relative, steps...)
}

func diffTree(r *rand.Rand, depth int) *xmldoc.Elem {
	e := &xmldoc.Elem{Name: diffAlphabet[r.Intn(len(diffAlphabet))]}
	switch r.Intn(3) {
	case 0:
		e.Attrs = append(e.Attrs, xmldoc.Attr{Name: "k", Value: diffAlphabet[r.Intn(2)]})
	case 1:
		e.Attrs = append(e.Attrs, xmldoc.Attr{Name: "other", Value: "x"})
	}
	if depth < 5 {
		for i := r.Intn(4) - 1; i >= 0; i-- {
			e.Children = append(e.Children, diffTree(r, depth+1))
		}
	}
	return e
}

// decorate serialises the tree with randomised but always-valid XML noise,
// so scanning it must accept and must reach the same verdicts.
func decorate(r *rand.Rand, e *xmldoc.Elem, b *strings.Builder) {
	b.WriteString("<" + e.Name)
	for _, a := range e.Attrs {
		q := `"`
		if r.Intn(2) == 0 {
			q = `'`
		}
		val := a.Value
		switch r.Intn(4) {
		case 0: // decimal character references
			var enc strings.Builder
			for _, c := range val {
				enc.WriteString("&#" + strings.TrimLeft(intToDec(int(c)), "0") + ";")
			}
			val = enc.String()
		case 1:
			val = "&#x" + hexOf(val) // single-char values only in this corpus
		}
		b.WriteString(" " + a.Name + "=" + q + val + q)
	}
	if len(e.Children) == 0 && r.Intn(2) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	noise := func() {
		switch r.Intn(8) {
		case 0:
			b.WriteString("<!-- noise -->")
		case 1:
			b.WriteString("<?pi noise?>")
		case 2:
			b.WriteString("<![CDATA[ ]] > & < ]]>")
		case 3:
			b.WriteString("text &lt;&amp;&#65; ]]&gt;")
		case 4:
			b.WriteString(" \r\n\t ")
		}
	}
	noise()
	for _, c := range e.Children {
		decorate(r, c, b)
		noise()
	}
	b.WriteString("</" + e.Name + ">")
}

func intToDec(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// hexOf encodes the single-character values of the diff corpus.
func hexOf(s string) string {
	const hexdig = "0123456789abcdef"
	c := s[0]
	return string([]byte{hexdig[c>>4], hexdig[c&0xf]}) + ";"
}

// diffAutomaton compiles the workload into one automaton, payload = index.
func diffAutomaton(xs []*xpath.XPE) *pmatch.Automaton {
	b := pmatch.NewBuilder()
	for i, x := range xs {
		b.Add(x, i)
	}
	return b.Build()
}

// threeWayVerdicts evaluates the same workload along all three routes and
// returns the sorted entry-index sets.
func threeWayVerdicts(t *testing.T, auto *pmatch.Automaton, xs []*xpath.XPE, doc *xmldoc.Document, raw []byte) (streamed, decomposed, reference []int) {
	t.Helper()
	collectInto := func(dst *[]int) func(any) {
		seen := map[int]bool{}
		return func(d any) {
			if i := d.(int); !seen[i] {
				seen[i] = true
				*dst = append(*dst, i)
			}
		}
	}
	if err := Match(raw, auto, Limits{}, collectInto(&streamed)); err != nil {
		t.Fatalf("stream.Match rejected %q: %v", raw, err)
	}
	sort.Ints(streamed)

	paths, attrs := doc.AnnotatedSymPaths()
	addD := collectInto(&decomposed)
	for i, p := range paths {
		auto.Match(p, attrs[i], addD)
	}
	sort.Ints(decomposed)

	return streamed, decomposed, oracle.FlatDoc(xs, doc)
}

func assertThreeWay(t *testing.T, auto *pmatch.Automaton, xs []*xpath.XPE, doc *xmldoc.Document, raw []byte, ctx string) {
	t.Helper()
	streamed, decomposed, reference := threeWayVerdicts(t, auto, xs, doc, raw)
	if !eqIntSlices(streamed, reference) || !eqIntSlices(decomposed, reference) {
		var exprs []string
		for _, x := range xs {
			exprs = append(exprs, x.String())
		}
		t.Fatalf("%s: verdict divergence\n  raw:        %q\n  streamed:   %v\n  decomposed: %v\n  oracle:     %v\n  exprs:      %s",
			ctx, raw, streamed, decomposed, reference, strings.Join(exprs, " ; "))
	}
}

func eqIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuickStreamEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 40; round++ {
		nx := 1 + r.Intn(30)
		xs := make([]*xpath.XPE, nx)
		for i := range xs {
			xs[i] = diffXPE(r)
		}
		auto := diffAutomaton(xs)
		for trial := 0; trial < 15; trial++ {
			doc := &xmldoc.Document{Root: diffTree(r, 0)}
			var sb strings.Builder
			decorate(r, doc.Root, &sb)
			assertThreeWay(t, auto, xs, doc, []byte(sb.String()), "quick")
			// The undecorated serialisation too (self-closing vs explicit
			// close, escaped attrs through xmldoc's own writer).
			assertThreeWay(t, auto, xs, doc, doc.Marshal(), "quick-marshal")
		}
	}
}

// TestDTDStreamEquivalence runs the harness over realistic documents: the
// DTD-driven generators (NITF news, protein DB) with expressions from the
// paper's XPath workload generator, predicates injected against the
// documents' real attribute pairs (and some that match nothing).
func TestDTDStreamEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		dtd  func() *gen.DocGenerator
		xg   *gen.XPathGenerator
	}{
		{"psd", func() *gen.DocGenerator { return gen.NewDocGenerator(dtddata.PSD(), 101) },
			gen.NewXPathGenerator(dtddata.PSD(), 0.3, 0.3, 102)},
		{"nitf", func() *gen.DocGenerator { return gen.NewDocGenerator(dtddata.NITF(), 103) },
			gen.NewXPathGenerator(dtddata.NITF(), 0.3, 0.3, 104)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(105))
			dg := tc.dtd()
			docs := make([]*xmldoc.Document, 12)
			var pairs []xmldoc.Attr
			for i := range docs {
				docs[i] = dg.Generate()
				var walk func(e *xmldoc.Elem)
				walk = func(e *xmldoc.Elem) {
					pairs = append(pairs, e.Attrs...)
					for _, c := range e.Children {
						walk(c)
					}
				}
				walk(docs[i].Root)
			}
			var xs []*xpath.XPE
			for i := 0; i < 40; i++ {
				x := tc.xg.Generate()
				if len(pairs) > 0 && r.Intn(3) == 0 {
					// Inject a predicate: a real attribute pair 2/3 of the
					// time, an impossible one otherwise.
					p := pairs[r.Intn(len(pairs))]
					if r.Intn(3) == 0 {
						p.Value = "no-such-value"
					}
					steps := append([]xpath.Step(nil), x.Steps...)
					si := r.Intn(len(steps))
					steps[si].Preds = xpath.EncodePreds([]xpath.Pred{{Attr: p.Name, Value: p.Value}})
					x = xpath.New(x.Relative, steps...)
				}
				xs = append(xs, x)
			}
			auto := diffAutomaton(xs)
			for _, doc := range docs {
				assertThreeWay(t, auto, xs, doc, doc.Marshal(), tc.name)
			}
		})
	}
}

// TestStreamEquivalenceConcurrent hammers one automaton from many
// goroutines mixing decorated and plain serialisations — pooled matchers and
// cursors must not leak state between concurrent runs (run under -race in
// CI).
func TestStreamEquivalenceConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	xs := make([]*xpath.XPE, 25)
	for i := range xs {
		xs[i] = diffXPE(r)
	}
	auto := diffAutomaton(xs)
	type work struct {
		doc        *xmldoc.Document
		raw, plain []byte
	}
	jobs := make([]work, 64)
	for i := range jobs {
		doc := &xmldoc.Document{Root: diffTree(r, 0)}
		var sb strings.Builder
		decorate(r, doc.Root, &sb)
		jobs[i] = work{doc: doc, raw: []byte(sb.String()), plain: doc.Marshal()}
	}
	// Per-job expected sets, computed serially first.
	want := make([][]int, len(jobs))
	for i, j := range jobs {
		paths, attrs := j.doc.AnnotatedSymPaths()
		seen := map[int]bool{}
		for pi, p := range paths {
			auto.Match(p, attrs[pi], func(d any) {
				if k := d.(int); !seen[k] {
					seen[k] = true
					want[i] = append(want[i], k)
				}
			})
		}
		sort.Ints(want[i])
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for rep := 0; rep < 30; rep++ {
				i := (g*13 + rep*7) % len(jobs)
				var got []int
				seen := map[int]bool{}
				collect := func(d any) {
					if k := d.(int); !seen[k] {
						seen[k] = true
						got = append(got, k)
					}
				}
				data := jobs[i].raw
				if rep%2 != 0 {
					data = jobs[i].plain
				}
				if err := Match(data, auto, Limits{}, collect); err != nil {
					done <- err
					return
				}
				sort.Ints(got)
				if !eqIntSlices(got, want[i]) {
					t.Errorf("goroutine %d job %d: got %v want %v", g, i, got, want[i])
					done <- nil
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent match error: %v", err)
		}
	}
}
