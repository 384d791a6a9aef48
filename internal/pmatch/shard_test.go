package pmatch

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

func TestShardIndexPlacement(t *testing.T) {
	const n = 4
	cases := []struct {
		expr string
		wild bool
	}{
		{"/a/b", false},
		{"/a", false},
		{`/a[@x="1"]/b`, false},
		{"//a/b", true},
		{"/*/b", true},
		{"a/b", true}, // relative
	}
	for _, c := range cases {
		x := xpath.MustParse(c.expr)
		got := ShardIndex(x, n)
		if c.wild {
			if got != n {
				t.Errorf("ShardIndex(%q, %d) = %d, want wild slot %d", c.expr, n, got, n)
			}
		} else {
			want := PathShard(x.Syms()[0], n)
			if got != want || got < 0 || got >= n {
				t.Errorf("ShardIndex(%q, %d) = %d, want anchored slot %d", c.expr, n, got, want)
			}
		}
		if s := ShardIndex(x, 1); s != 0 {
			t.Errorf("ShardIndex(%q, 1) = %d, want 0", c.expr, s)
		}
	}
	if Slots(1) != 1 || Slots(8) != 9 {
		t.Errorf("Slots: got %d,%d want 1,9", Slots(1), Slots(8))
	}
	if SlotName(3, 8) != "3" || SlotName(8, 8) != "wild" || SlotName(0, 1) != "0" || SlotName(12, 16) != "12" {
		t.Errorf("SlotName: got %q %q %q %q", SlotName(3, 8), SlotName(8, 8), SlotName(0, 1), SlotName(12, 16))
	}
}

func TestNewShardedValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("wrong slot count", func() { NewSharded(2, []*Automaton{NewBuilder().Build()}) })
	mustPanic("nil slot", func() { NewSharded(1, []*Automaton{nil}) })
}

// TestShardedMatchEquivalence: for every shard count, the sharded match
// over a partitioned workload is identical to the monolithic automaton
// over the same expressions — the contract the broker's publish path
// relies on when -shards > 1.
func TestShardedMatchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 4, 8} {
		for round := 0; round < 25; round++ {
			nx := 1 + r.Intn(40)
			mb := NewBuilder()
			sb := NewShardedBuilder(n)
			xs := make([]*xpath.XPE, nx)
			for i := range xs {
				xs[i] = randomXPE(r)
				mb.Add(xs[i], i)
				sb.Add(xs[i], i)
			}
			mono, sharded := mb.Build(), sb.Build()
			if sharded.Entries() != nx || sharded.N() != n || sharded.SlotCount() != Slots(n) {
				t.Fatalf("n=%d: Entries=%d N=%d SlotCount=%d", n, sharded.Entries(), sharded.N(), sharded.SlotCount())
			}
			for trial := 0; trial < 30; trial++ {
				path, attrs := randomPath(r)
				sp := symtab.InternPath(path)

				var want, got []int
				mono.Match(sp, attrs, func(d any) { want = append(want, d.(int)) })
				sharded.Match(sp, attrs, func(d any) { got = append(got, d.(int)) })
				sort.Ints(want)
				sort.Ints(got)
				if !eqInts(got, want) {
					t.Fatalf("n=%d round %d: Match on %v: sharded=%v mono=%v\nexprs=%s",
						n, round, path, got, want, dumpExprs(xs))
				}

				want, got = nil, nil
				mono.MatchStructural(sp, func(d any) { want = append(want, d.(int)) })
				sharded.MatchStructural(sp, func(d any) { got = append(got, d.(int)) })
				sort.Ints(want)
				sort.Ints(got)
				if !eqInts(got, want) {
					t.Fatalf("n=%d round %d: MatchStructural on %v: sharded=%v mono=%v\nexprs=%s",
						n, round, path, got, want, dumpExprs(xs))
				}
			}
		}
	}
}

// driveSharded mirrors driveCursor for a ShardedCursor.
func driveSharded(c *ShardedCursor, n *testNode, stack *[]symtab.Sym, stackAttrs *[]map[string]string, got *[]int) {
	sym, _ := symtab.Lookup(n.name)
	*stack = append(*stack, sym)
	*stackAttrs = append(*stackAttrs, n.attrs)
	c.Enter(sym, func(x *xpath.XPE, hasPreds bool, data any) bool {
		if hasPreds && !x.MatchesSymPathAttrs(*stack, *stackAttrs) {
			return false
		}
		*got = append(*got, data.(int))
		return true
	})
	for _, ch := range n.children {
		driveSharded(c, ch, stack, stackAttrs, got)
	}
	*stack = (*stack)[:len(*stack)-1]
	*stackAttrs = (*stackAttrs)[:len(*stackAttrs)-1]
	c.Leave()
}

// TestShardedCursorEquivalence drives the sharded streaming execution over
// random FORESTS (several roots under one cursor, so the per-slot cursor
// reuse and cross-root settlement paths are exercised) and compares against
// the monolithic Cursor — the contract internal/stream relies on.
func TestShardedCursorEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 4, 8} {
		for round := 0; round < 20; round++ {
			nx := 1 + r.Intn(40)
			mb := NewBuilder()
			sb := NewShardedBuilder(n)
			xs := make([]*xpath.XPE, nx)
			for i := range xs {
				xs[i] = randomXPE(r)
				mb.Add(xs[i], i)
				sb.Add(xs[i], i)
			}
			mono, sharded := mb.Build(), sb.Build()
			for trial := 0; trial < 15; trial++ {
				forest := make([]*testNode, 1+r.Intn(3))
				for i := range forest {
					forest[i] = randomTree(r, 2)
				}

				mc := mono.Cursor()
				var want []int
				var stack []symtab.Sym
				var stackAttrs []map[string]string
				for _, tree := range forest {
					driveCursor(mc, tree, &stack, &stackAttrs, &want)
				}
				mc.Release()
				sort.Ints(want)

				sc := sharded.Cursor()
				var got []int
				for _, tree := range forest {
					driveSharded(sc, tree, &stack, &stackAttrs, &got)
				}
				if sc.Depth() != 0 {
					t.Fatalf("n=%d: depth %d after balanced walk", n, sc.Depth())
				}
				sc.Release()
				sort.Ints(got)

				if !eqInts(got, want) {
					t.Fatalf("n=%d round %d trial %d: sharded=%v mono=%v\nexprs=%s",
						n, round, trial, got, want, dumpExprs(xs))
				}
			}
		}
	}
}

func TestShardedCursorLeavePanics(t *testing.T) {
	s := NewShardedBuilder(2).Build()
	c := s.Cursor()
	defer c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Leave at depth 0 did not panic")
		}
	}()
	c.Leave()
}

// TestConcurrentShardRebuildAndMatch pins, under -race, that an Automaton
// really is immutable after Build: matcher goroutines run Match and Cursor
// walks against a snapshot pointer while a rebuilder continuously
// recompiles random subsets of shards on parallel goroutines (one fresh
// Builder each), reusing the untouched slots, and swaps the snapshot. Any write into a live automaton
// or cross-goroutine Builder sharing is a race or a guard panic; any
// corruption shows up as an oracle mismatch.
func TestConcurrentShardRebuildAndMatch(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 4
	xs := make([]*xpath.XPE, 120)
	for i := range xs {
		xs[i] = randomXPE(r)
	}
	buckets := make([][]int, Slots(n))
	for i, x := range xs {
		s := ShardIndex(x, n)
		buckets[s] = append(buckets[s], i)
	}
	buildSlot := func(slot int) *Automaton {
		b := NewBuilder()
		for _, i := range buckets[slot] {
			b.Add(xs[i], i)
		}
		return b.Build()
	}
	buildAll := func() *ShardedAutomaton {
		slots := make([]*Automaton, Slots(n))
		for i := range slots {
			slots[i] = buildSlot(i)
		}
		return NewSharded(n, slots)
	}

	var ptr atomic.Pointer[ShardedAutomaton]
	ptr.Store(buildAll())

	// Pre-generate match work + oracle answers (the entry set never changes
	// across rebuilds — only which slots were recompiled).
	type workItem struct {
		sp    []symtab.Sym
		attrs []map[string]string
		want  []int
	}
	work := make([]workItem, 50)
	for i := range work {
		path, attrs := randomPath(r)
		w := workItem{sp: symtab.InternPath(path), attrs: attrs}
		for j, x := range xs {
			if x.MatchesSymPathAttrs(w.sp, attrs) {
				w.want = append(w.want, j)
			}
		}
		work[i] = w
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := work[k%len(work)]
				k++
				var got []int
				ptr.Load().Match(w.sp, w.attrs, func(d any) { got = append(got, d.(int)) })
				sort.Ints(got)
				if !eqInts(got, w.want) {
					t.Errorf("matcher %d: got %v want %v", g, got, w.want)
					return
				}
			}
		}(g)
	}

	for round := 0; round < 40; round++ {
		old := ptr.Load()
		slots := make([]*Automaton, Slots(n))
		var dirty []int
		for i := range slots {
			if round%2 == 0 || r.Intn(2) == 0 {
				dirty = append(dirty, i)
			} else {
				slots[i] = old.Slot(i) // alias: shard unchanged
			}
		}
		var bwg sync.WaitGroup
		for _, slot := range dirty {
			bwg.Add(1)
			go func(slot int) {
				defer bwg.Done()
				slots[slot] = buildSlot(slot)
			}(slot)
		}
		bwg.Wait()
		ptr.Store(NewSharded(n, slots))
	}
	close(stop)
	wg.Wait()
}

func TestBuilderUseAfterBuildPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := NewBuilder()
	b.Add(xpath.MustParse("/a"), 1)
	b.Build()
	mustPanic("Add after Build", func() { b.Add(xpath.MustParse("/b"), 2) })
	mustPanic("Build after Build", func() { b.Build() })
}

func TestBuilderConcurrentUsePanics(t *testing.T) {
	b := NewBuilder()
	b.begin() // simulate another goroutine mid-Add
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent Add did not panic")
		}
	}()
	b.Add(xpath.MustParse("/a"), 1)
}
