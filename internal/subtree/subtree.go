// Package subtree implements the paper's novel data structure for managing
// subscriptions at a broker: a tree ordered by the covering relation, where
// every parent covers all subscriptions in its subtree, extended with super
// pointers that record covering relations crossing subtree boundaries. The
// tree plus the super pointers form a DAG capturing the covering partial
// order.
//
// The structure serves three routing operations:
//
//   - deciding whether an arriving subscription is covered by an existing
//     one (and need not be forwarded),
//   - finding the existing subscriptions a new subscription covers (which
//     must be unsubscribed when the new one is forwarded), and
//   - matching a publication path against all stored subscriptions with
//     covering-based pruning: once a node fails to match, its entire
//     subtree is skipped, because a publication outside P(parent) cannot be
//     in P(child) ⊆ P(parent).
//
// # Concurrency
//
// A Tree is not internally synchronised, but its operations divide into two
// classes with a guaranteed contract:
//
//   - READ-ONLY: MatchPath, MatchPathAttrs, MatchSymPath, MatchSymPathAttrs,
//     MatchPathAny, MatchPathAnyAttrs, MatchSymPathAnyAttrs, Lookup, Size,
//     Depth, Walk, Stats, TopLevel, Coverers, CoveredBy, IsCovered,
//     IsCoveredBesides, String, and the Node accessors. These never mutate
//     the tree (they may not even write transient scratch state into it) and
//     are safe to run concurrently with each other. Callers matching
//     publications in parallel against one tree under a shared lock depend
//     on this invariant; changing any of these to mutate the tree is a
//     breaking change and must be flagged in review. A race-detector test
//     (TestMatchIsReadOnlyUnderRace) enforces the invariant.
//
//   - MUTATING: Insert, FlatInsert, Remove, and writes through Node.Data.
//     These require exclusive access relative to every other operation.
//
// Visit callbacks run while the traversal holds no lock of its own; callers
// coordinating concurrent readers must not mutate from inside a callback.
package subtree

import (
	"fmt"
	"strings"

	"repro/internal/cover"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// Node is a stored subscription. Fields are managed by Tree; callers may
// read them and may use Data freely.
type Node struct {
	XPE *xpath.XPE
	// Data is an arbitrary payload (brokers store routing state here).
	Data any

	parent   *Node
	children []*Node
	// super points to top-level nodes this node covers outside its subtree.
	super []*Node
	// superRefs lists nodes whose super pointers reference this node.
	superRefs []*Node
}

// Parent returns the covering parent, or nil for a top-level node.
func (n *Node) Parent() *Node {
	if n.parent != nil && n.parent.XPE == nil {
		return nil // virtual root
	}
	return n.parent
}

// Children returns the directly covered children. The returned slice is the
// tree's own; callers must not modify it.
func (n *Node) Children() []*Node { return n.children }

// Super returns the node's super pointers (covered nodes outside its
// subtree). The returned slice is the tree's own; callers must not modify it.
func (n *Node) Super() []*Node { return n.super }

// Tree is the subscription tree. The zero value is not usable; call New.
type Tree struct {
	root       *Node // virtual root; XPE == nil, covers everything
	size       int
	superEdges int              // super pointers, kept by Insert and Remove
	index      map[string]*Node // exact-expression lookup
}

// New returns an empty subscription tree.
func New() *Tree {
	return &Tree{root: &Node{}, index: make(map[string]*Node)}
}

// Size returns the number of stored subscriptions.
func (t *Tree) Size() int { return t.size }

// Lookup returns the node holding an expression exactly equal to x, or nil.
func (t *Tree) Lookup(x *xpath.XPE) *Node { return t.index[x.Key()] }

// InsertResult reports what Insert found and did.
type InsertResult struct {
	// Node is the stored node (a pre-existing one if Duplicate).
	Node *Node
	// Duplicate is true when an identical expression was already stored.
	Duplicate bool
	// Covered is true when the subscription is covered by an existing,
	// different subscription — a covering-based router does not forward it.
	Covered bool
	// NewlyCovered lists the previously top-level nodes that the new
	// subscription covers (they became children or super-pointer targets).
	// A covering-based router unsubscribes these from its neighbours.
	NewlyCovered []*Node
}

// Insert stores subscription x, maintaining the covering order and super
// pointers, and reports the covering relations relevant to routing.
func (t *Tree) Insert(x *xpath.XPE) InsertResult {
	if n := t.index[x.Key()]; n != nil {
		return InsertResult{Node: n, Duplicate: true, Covered: true}
	}
	n := &Node{XPE: x}

	// Find the insertion parent: descend while some child covers x.
	parent := t.root
	covered := false
descent:
	for {
		for _, c := range parent.children {
			if cover.Covers(c.XPE, x) {
				parent = c
				covered = true
				continue descent
			}
		}
		break
	}

	// Among the parent's children, the ones x covers become x's children.
	// kept is fresh, sized once: callers may be iterating the old child
	// slice (merge passes do), and growing it by appends would cost
	// O(log children) allocations per insert.
	var adopted []*Node
	kept := make([]*Node, 0, len(parent.children)+1)
	for _, c := range parent.children {
		if cover.Covers(x, c.XPE) {
			adopted = append(adopted, c)
		} else {
			kept = append(kept, c)
		}
	}
	parent.children = kept
	n.parent = parent
	n.children = adopted
	for _, c := range adopted {
		c.parent = n
	}
	parent.children = append(parent.children, n)

	// Super pointers: find the remaining top-level nodes x covers elsewhere
	// in the tree. When x is itself covered this scan is skipped — a
	// covered subscription is never forwarded, so its covered set is not
	// needed for routing; the paper makes the same lazy-update observation.
	var external []*Node
	if !covered {
		external = t.topCoveredExcluding(x, n)
	}
	for _, c := range external {
		n.super = append(n.super, c)
		c.superRefs = append(c.superRefs, n)
	}
	t.superEdges += len(external)

	newly := make([]*Node, 0, len(adopted)+len(external))
	newly = append(newly, adopted...)
	newly = append(newly, external...)

	t.index[x.Key()] = n
	t.size++
	return InsertResult{Node: n, Covered: covered, NewlyCovered: newly}
}

// FlatInsert stores x directly at the top level without any covering
// analysis. It models the paper's "no covering" baseline: the routing table
// is a plain list, publication matching scans every entry, and no
// subscription ever suppresses another. Flat and covering inserts must not
// be mixed in one tree.
func (t *Tree) FlatInsert(x *xpath.XPE) InsertResult {
	if n := t.index[x.Key()]; n != nil {
		return InsertResult{Node: n, Duplicate: true, Covered: true}
	}
	n := &Node{XPE: x, parent: t.root}
	t.root.children = append(t.root.children, n)
	t.index[x.Key()] = n
	t.size++
	return InsertResult{Node: n}
}

// IsCovered reports whether x is covered by a stored subscription (including
// an exact duplicate).
func (t *Tree) IsCovered(x *xpath.XPE) bool {
	if t.index[x.Key()] != nil {
		return true
	}
	for _, c := range t.root.children {
		if cover.Covers(c.XPE, x) {
			return true
		}
	}
	return false
}

// Coverers returns the stored top-level subscriptions that cover x
// (excluding an exact duplicate node itself). Only the top level matters to
// routers: deeper nodes are covered by their ancestors and were never
// forwarded.
func (t *Tree) Coverers(x *xpath.XPE) []*Node {
	var out []*Node
	for _, c := range t.root.children {
		if c.XPE != x && cover.Covers(c.XPE, x) {
			out = append(out, c)
		}
	}
	return out
}

// IsCoveredBesides reports whether x is covered by a stored top-level
// subscription other than the excluded node. Routers use it when deciding
// whether a subscription uncovered by an unsubscription must be forwarded.
func (t *Tree) IsCoveredBesides(x *xpath.XPE, exclude *Node) bool {
	for _, c := range t.root.children {
		if c == exclude {
			continue
		}
		if cover.Covers(c.XPE, x) {
			return true
		}
	}
	return false
}

// CoveredBy returns the stored top-level subscriptions that x covers. Only
// "higher level" nodes are reported, as the paper notes: nodes deeper in the
// tree are covered by their ancestors and were never forwarded.
func (t *Tree) CoveredBy(x *xpath.XPE) []*Node {
	return t.topCoveredExcluding(x, nil)
}

// topCoveredExcluding walks the top level of the tree collecting nodes
// covered by x, skipping the excluded node itself.
func (t *Tree) topCoveredExcluding(x *xpath.XPE, exclude *Node) []*Node {
	var out []*Node
	for _, c := range t.root.children {
		if c == exclude {
			continue
		}
		if cover.Covers(x, c.XPE) {
			out = append(out, c)
		}
	}
	return out
}

// Remove deletes a stored node. Its children are spliced up to its parent
// (the parent covers them transitively), and super pointers involving the
// node are dropped.
func (t *Tree) Remove(n *Node) {
	if n == nil || n.XPE == nil {
		return
	}
	if t.index[n.XPE.Key()] != n {
		return // not (or no longer) in this tree
	}
	parent := n.parent
	parent.children = removeNode(parent.children, n)
	for _, c := range n.children {
		c.parent = parent
		parent.children = append(parent.children, c)
	}
	// Drop super pointers from n.
	for _, target := range n.super {
		target.superRefs = removeNode(target.superRefs, n)
	}
	// Drop super pointers to n; the pointer owners now cover n's children
	// transitively through the tree, so no replacement pointers are needed
	// for correctness of CoveredBy (which only reports top-level nodes).
	for _, owner := range n.superRefs {
		owner.super = removeNode(owner.super, n)
	}
	t.superEdges -= len(n.super) + len(n.superRefs)
	delete(t.index, n.XPE.Key())
	t.size--
	n.parent = nil
	n.children = nil
	n.super = nil
	n.superRefs = nil
}

func removeNode(s []*Node, n *Node) []*Node {
	for i, c := range s {
		if c == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// matchWalk is the single covering-pruned traversal behind every MatchPath*
// variant: it invokes visit for every stored subscription whose expression
// satisfies matches, skipping the entire subtree of any node that fails —
// sound because a parent covers its subtree, so a publication outside
// P(parent) cannot be in P(child). It is read-only (see the package
// concurrency contract); the wrappers below differ only in the predicate
// they close over.
func (t *Tree) matchWalk(matches func(*xpath.XPE) bool, visit func(*Node)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if !matches(n.XPE) {
			return
		}
		visit(n)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, c := range t.root.children {
		walk(c)
	}
}

// matchAny is the shared top-level scan behind the MatchPathAny* variants.
// Because every node is covered by its top-level ancestor, only the top
// level needs checking.
func (t *Tree) matchAny(matches func(*xpath.XPE) bool) bool {
	for _, c := range t.root.children {
		if matches(c.XPE) {
			return true
		}
	}
	return false
}

// MatchPath invokes visit for every stored subscription matching the
// publication path, pruning subtrees whose root fails to match. It is
// read-only and safe for concurrent use with other readers (see the package
// comment).
func (t *Tree) MatchPath(path []string, visit func(*Node)) {
	t.matchWalk(func(x *xpath.XPE) bool { return x.MatchesPath(path) }, visit)
}

// MatchPathAttrs is MatchPath with attribute predicates evaluated against
// the publication's per-element attributes. Pruning stays sound because the
// tree's covering order is predicate-aware: a parent admits every
// publication its children admit. Like MatchPath it is read-only and safe
// for concurrent use with other readers.
func (t *Tree) MatchPathAttrs(path []string, attrs []map[string]string, visit func(*Node)) {
	t.matchWalk(func(x *xpath.XPE) bool { return x.MatchesPathAttrs(path, attrs) }, visit)
}

// MatchSymPath is MatchPath over an interned publication path — the broker
// data plane's representation. Read-only, like every Match* traversal.
func (t *Tree) MatchSymPath(path []symtab.Sym, visit func(*Node)) {
	t.matchWalk(func(x *xpath.XPE) bool { return x.MatchesSymPath(path) }, visit)
}

// MatchSymPathAttrs is MatchPathAttrs over an interned publication path.
// Read-only, like every Match* traversal.
func (t *Tree) MatchSymPathAttrs(path []symtab.Sym, attrs []map[string]string, visit func(*Node)) {
	t.matchWalk(func(x *xpath.XPE) bool { return x.MatchesSymPathAttrs(path, attrs) }, visit)
}

// MatchPathAnyAttrs reports whether any stored subscription matches the
// annotated path.
func (t *Tree) MatchPathAnyAttrs(path []string, attrs []map[string]string) bool {
	return t.matchAny(func(x *xpath.XPE) bool { return x.MatchesPathAttrs(path, attrs) })
}

// MatchPathAny reports whether any stored subscription matches the path.
func (t *Tree) MatchPathAny(path []string) bool {
	return t.matchAny(func(x *xpath.XPE) bool { return x.MatchesPath(path) })
}

// MatchSymPathAnyAttrs reports whether any stored subscription matches the
// interned annotated path — the edge client filter's hot-path form.
func (t *Tree) MatchSymPathAnyAttrs(path []symtab.Sym, attrs []map[string]string) bool {
	return t.matchAny(func(x *xpath.XPE) bool { return x.MatchesSymPathAttrs(path, attrs) })
}

// TopLevel returns the maximal stored subscriptions (covered by nothing in
// the tree except possibly via incomparable super-pointer owners).
func (t *Tree) TopLevel() []*Node {
	out := make([]*Node, len(t.root.children))
	copy(out, t.root.children)
	return out
}

// Walk visits every stored node in depth-first order.
func (t *Tree) Walk(visit func(*Node)) {
	t.matchWalk(func(*xpath.XPE) bool { return true }, visit)
}

// Stats reports the covering structure's shape for observability: stored
// nodes, parent-child edges, and super-pointer edges. O(1): every stored
// node but the top-level ones has exactly one parent edge, and Insert and
// Remove keep the super-pointer count. Read-only (see the package
// concurrency contract).
func (t *Tree) Stats() (nodes, edges, superEdges int) {
	return t.size, t.size - len(t.root.children), t.superEdges
}

// Depth returns the maximum node depth (1 for children of the root).
func (t *Tree) Depth() int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		best := 1
		for _, c := range n.children {
			if d := 1 + depth(c); d > best {
				best = d
			}
		}
		return best
	}
	best := 0
	for _, c := range t.root.children {
		if d := depth(c); d > best {
			best = d
		}
	}
	return best
}

// String renders the tree for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var walk func(n *Node, indent int)
	walk = func(n *Node, indent int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", indent), n.XPE)
		if len(n.super) > 0 {
			b.WriteString(" ->")
			for _, s := range n.super {
				fmt.Fprintf(&b, " %s", s.XPE)
			}
		}
		b.WriteByte('\n')
		for _, c := range n.children {
			walk(c, indent+1)
		}
	}
	for _, c := range t.root.children {
		walk(c, 0)
	}
	return b.String()
}
