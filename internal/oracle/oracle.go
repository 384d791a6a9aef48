// Package oracle is the reference every matcher in this repository is
// tested against: the paper's matching definition, transcribed directly and
// sharing no code with xpath's evaluator; flat scans over expression lists;
// and the paper's Table 1 router, the covering-pruned walk of a
// subscription tree. It is support code for tests and internal/experiment.
package oracle

import (
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Selects reports whether x selects a node on the root-to-leaf element path:
// whether its steps bind to positions i1 < i2 < ... of the path such that
// each step's name test accepts the element at its position, a "/" step
// binds right after the previous step and a "//" step anywhere after it,
// and the first step binds at 0 if x is absolute with a "/" axis and
// anywhere otherwise. With preds, each step's predicates must also hold for
// attrs[i], the attributes of path[i] (a missing entry or attribute fails);
// without, predicates are ignored.
func Selects(x *xpath.XPE, path []string, attrs []map[string]string, preds bool) bool {
	// can[p]: the next step may bind at position p.
	can := make([]bool, len(path))
	for p := range can {
		can[p] = p == 0 || x.Relative || (len(x.Steps) > 0 && x.Steps[0].Axis == xpath.Descendant)
	}
	for i, s := range x.Steps {
		next := make([]bool, len(path))
		for p, name := range path {
			if !can[p] || (s.Name != xpath.Wildcard && s.Name != name) || (preds && !holds(s, attrs, p)) {
				continue
			}
			if i == len(x.Steps)-1 {
				return true
			}
			for q := p + 1; q < len(path) && (q == p+1 || x.Steps[i+1].Axis == xpath.Descendant); q++ {
				next[q] = true
			}
		}
		can = next
	}
	return false
}

// holds reports whether every predicate of step s holds for the attributes
// of path element p.
func holds(s xpath.Step, attrs []map[string]string, p int) bool {
	var at map[string]string
	if p < len(attrs) {
		at = attrs[p]
	}
	for _, pr := range xpath.DecodePreds(s.Preds) {
		if v, ok := at[pr.Attr]; !ok || v != pr.Value {
			return false
		}
	}
	return true
}

// Flat returns, in increasing order, the indices of the expressions in xs
// that select a node on the path (see Selects for attrs and preds).
func Flat(xs []*xpath.XPE, path []string, attrs []map[string]string, preds bool) []int {
	var out []int
	for i, x := range xs {
		if Selects(x, path, attrs, preds) {
			out = append(out, i)
		}
	}
	return out
}

// FlatDoc returns, in increasing order, the indices of the expressions in
// xs that select a node on some root-to-leaf path of the document, with
// predicates evaluated: the union of Flat over the document's paths.
func FlatDoc(xs []*xpath.XPE, doc *xmldoc.Document) []int {
	paths, attrs := doc.AnnotatedPaths()
	var out []int
	for i, x := range xs {
		for j, p := range paths {
			if Selects(x, p, attrs[j], true) {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// Names converts an interned path back to element names, so a test holding
// only symbols can ask Selects. A symbol the table never assigned (None)
// becomes "", which only a wildcard step accepts, as in the evaluator.
func Names(path []symtab.Sym) []string {
	names := make([]string, len(path))
	for i, s := range path {
		names[i] = symtab.NameOf(s)
	}
	return names
}

// Walk is the paper's publication router over a subscription tree: it calls
// visit for every stored subscription whose expression satisfies match,
// skipping the whole subtree of any node that fails. The pruning is sound
// because a parent covers its subtree, so a publication outside P(parent)
// cannot be in P(child). Walk only reads the tree.
func Walk(t *subtree.Tree, match func(*xpath.XPE) bool, visit func(*subtree.Node)) {
	var walk func(n *subtree.Node)
	walk = func(n *subtree.Node) {
		if !match(n.XPE) {
			return
		}
		visit(n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, n := range t.TopLevel() {
		walk(n)
	}
}

// Any reports whether some stored subscription satisfies match. Every node
// is covered by its top-level ancestor, so only the top level is tested.
func Any(t *subtree.Tree, match func(*xpath.XPE) bool) bool {
	for _, n := range t.TopLevel() {
		if match(n.XPE) {
			return true
		}
	}
	return false
}
