package subtree_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// TestMatchIsReadOnlyUnderRace enforces the package's concurrency contract:
// every operation documented as READ-ONLY really performs no writes, so the
// race detector stays silent when they all run at once, alongside the
// reference router's pruned walk. Readers under the broker's shared lock
// depend on this; if a future change makes any of these mutate the tree
// (caching, rebalancing, ...), this test fails under -race and the broker's
// locking must be revisited.
func TestMatchIsReadOnlyUnderRace(t *testing.T) {
	tree := subtree.New()
	for i := 0; i < 40; i++ {
		tree.Insert(xpath.MustParse(fmt.Sprintf("/a/b%d", i%10)))
		tree.Insert(xpath.MustParse(fmt.Sprintf("/a/b%d/c%d", i%10, i)))
		tree.Insert(xpath.MustParse(fmt.Sprintf("//d%d", i%7)))
	}
	probe := xpath.MustParse("/a/b3/c13")
	paths := [][]string{
		{"a", "b3", "c13"},
		{"a", "b1"},
		{"x", "d4"},
		{"a"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for _, p := range paths {
					oracle.Walk(tree, selects(p), func(n *subtree.Node) { _ = n.Parent() })
					oracle.Any(tree, selects(p))
				}
				tree.Lookup(probe)
				tree.IsCovered(probe)
				tree.Coverers(probe)
				tree.CoveredBy(probe)
				tree.TopLevel()
				tree.Walk(func(n *subtree.Node) { _ = n.Children() })
				_ = tree.Size()
				_ = tree.Depth()
				_ = tree.String()
			}
		}()
	}
	wg.Wait()
}
