// Package subtree implements the paper's novel data structure for managing
// subscriptions at a broker: a tree ordered by the covering relation, where
// every parent covers all subscriptions in its subtree. The paper extends
// the tree with super pointers for covering relations that cross subtree
// boundaries; this tree needs none, because Insert keeps the top level
// free of them (see Insert).
//
// The structure serves two routing operations:
//
//   - deciding whether an arriving subscription is covered by an existing
//     one (and need not be forwarded), and
//   - finding the existing subscriptions a new subscription covers (which
//     must be unsubscribed when the new one is forwarded).
//
// Its order also lets a publication walk skip the subtree of every node
// that fails to match; internal/oracle holds that walk.
//
// # Concurrency
//
// A Tree is not internally synchronised, but its operations divide into two
// classes with a guaranteed contract:
//
//   - READ-ONLY: Lookup, Size, Depth, Walk, Stats, TopLevel, Coverers,
//     CoveredBy, IsCovered, String, and the Node accessors. These never
//     mutate the tree (they may not even write transient scratch state into
//     it) and are safe to run concurrently with each other. Callers reading
//     one tree in parallel under a shared lock depend on this invariant;
//     changing any of these to mutate the tree is a breaking change and must
//     be flagged in review. A race-detector test
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
	// sig is cover.Signature(XPE): the scans below skip a pair whose
	// signatures rule covering out, without calling cover.Covers.
	sig uint64
}

// covers reports whether n's expression covers x, whose signature is sig.
func (n *Node) covers(x *xpath.XPE, sig uint64) bool {
	return n.sig&^sig == 0 && cover.Covers(n.XPE, x)
}

// coveredBy reports whether x, whose signature is sig, covers n's
// expression.
func (n *Node) coveredBy(x *xpath.XPE, sig uint64) bool {
	return sig&^n.sig == 0 && cover.Covers(x, n.XPE)
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

// Tree is the subscription tree. The zero value is not usable; call New.
type Tree struct {
	root  *Node // virtual root; XPE == nil, covers everything
	size  int
	index map[string]*Node // exact-expression lookup
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
	// subscription covers (they became its children).
	// A covering-based router unsubscribes these from its neighbours.
	NewlyCovered []*Node
}

// Insert stores subscription x, maintaining the covering order, and reports
// the covering relations relevant to routing.
func (t *Tree) Insert(x *xpath.XPE) InsertResult {
	if n := t.index[x.Key()]; n != nil {
		return InsertResult{Node: n, Duplicate: true, Covered: true}
	}
	sig := cover.Signature(x)
	n := &Node{XPE: x, sig: sig}

	// Find the insertion parent: descend while some child covers x.
	parent := t.root
	covered := false
descent:
	for {
		for _, c := range parent.children {
			if c.covers(x, sig) {
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
		if c.coveredBy(x, sig) {
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

	// The paper's super pointers would record the top-level nodes x covers
	// elsewhere in the tree, but there are none to find. A covered x skips
	// the search — a covered subscription is never forwarded, so its covered
	// set is not needed for routing; the paper makes the same lazy-update
	// observation. An uncovered x was placed under the root, and the
	// adoption scan above has already tested every top-level node: each one
	// x covers is now its child. NewlyCovered gets its own copy: callers
	// remove those nodes, which edits n.children.
	t.index[x.Key()] = n
	t.size++
	return InsertResult{Node: n, Covered: covered, NewlyCovered: append([]*Node(nil), adopted...)}
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
	n := &Node{XPE: x, parent: t.root, sig: cover.Signature(x)}
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
	sig := cover.Signature(x)
	for _, c := range t.root.children {
		if c.covers(x, sig) {
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
	sig := cover.Signature(x)
	for _, c := range t.root.children {
		if c.XPE != x && c.covers(x, sig) {
			out = append(out, c)
		}
	}
	return out
}

// CoveredBy returns the stored top-level subscriptions that x covers. Only
// "higher level" nodes are reported, as the paper notes: nodes deeper in the
// tree are covered by their ancestors and were never forwarded.
func (t *Tree) CoveredBy(x *xpath.XPE) []*Node {
	var out []*Node
	sig := cover.Signature(x)
	for _, c := range t.root.children {
		if c.coveredBy(x, sig) {
			out = append(out, c)
		}
	}
	return out
}

// Remove deletes a stored node. Its children are spliced up to its parent
// (the parent covers them transitively).
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
	delete(t.index, n.XPE.Key())
	t.size--
	n.parent = nil
	n.children = nil
}

func removeNode(s []*Node, n *Node) []*Node {
	for i, c := range s {
		if c == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// TopLevel returns the maximal stored subscriptions (the children of the
// virtual root).
func (t *Tree) TopLevel() []*Node {
	out := make([]*Node, len(t.root.children))
	copy(out, t.root.children)
	return out
}

// Walk visits every stored node in depth-first order, each parent before
// its children.
func (t *Tree) Walk(visit func(*Node)) {
	var walk func(n *Node)
	walk = func(n *Node) {
		visit(n)
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, c := range t.root.children {
		walk(c)
	}
}

// Stats reports the covering structure's shape for observability: stored
// nodes and parent-child edges. O(1): every stored node but the top-level
// ones has exactly one parent edge. Read-only (see the package concurrency
// contract).
func (t *Tree) Stats() (nodes, edges int) {
	return t.size, t.size - len(t.root.children)
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
		fmt.Fprintf(&b, "%s%s\n", strings.Repeat("  ", indent), n.XPE)
		for _, c := range n.children {
			walk(c, indent+1)
		}
	}
	for _, c := range t.root.children {
		walk(c, 0)
	}
	return b.String()
}
