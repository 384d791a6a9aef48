package advert

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// TestMatchesPathDoesNotGrowInterner pins the hot-path contract: matching a
// foreign publication path against a constructor-built advertisement must
// not intern the path's element names — the path is converted with Lookup
// and unknown names only ever match wildcard edges.
func TestMatchesPathDoesNotGrowInterner(t *testing.T) {
	a := MustParse("/eager-root/*/eager-leaf")
	// Construction compiled the automaton, so the advertisement's own names
	// are already interned.
	for _, name := range []string{"eager-root", "eager-leaf"} {
		if _, ok := symtab.Lookup(name); !ok {
			t.Fatalf("construction must intern edge name %q", name)
		}
	}
	before := symtab.Default.Len()
	foreign := []string{"eager-root", "foreign-elem-1", "eager-leaf"}
	if !a.MatchesPath(foreign) {
		t.Fatal("wildcard must match the foreign element")
	}
	if a.MatchesPath([]string{"foreign-elem-2", "foreign-elem-3", "eager-leaf"}) {
		t.Fatal("foreign element must not match a concrete edge")
	}
	if after := symtab.Default.Len(); after != before {
		t.Fatalf("MatchesPath grew the interner: %d -> %d", before, after)
	}
	if _, ok := symtab.Lookup("foreign-elem-1"); ok {
		t.Fatal("foreign path element was interned")
	}
}

// TestEagerCompileAllConstructors verifies every constructor ships a
// pre-compiled automaton (the publish path never compiles lazily for them).
func TestEagerCompileAllConstructors(t *testing.T) {
	cases := map[string]*Advertisement{
		"Parse":            MustParse("/a(/b/c)+/d"),
		"NewAdvertisement": NewAdvertisement(Sym("a"), Rep(Sym("b"))),
		"FromPath":         FromPath("a", "b", "c"),
		"Clone":            MustParse("/a/b").Clone(),
	}
	for name, a := range cases {
		if a.nfaCached.Load() == nil {
			t.Errorf("%s: automaton not compiled at construction", name)
		}
	}
}

// TestHandBuiltLiteralCompilesAtomically races first matches on a hand-built
// advertisement: the CAS publication must hand every goroutine a fully built
// automaton with consistent results.
func TestHandBuiltLiteralCompilesAtomically(t *testing.T) {
	for round := 0; round < 20; round++ {
		a := &Advertisement{Items: []Item{Sym("hb-a"), Rep(Sym("hb-b")), Sym("hb-c")}}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !a.MatchesPath([]string{"hb-a", "hb-b", "hb-b", "hb-c"}) {
					errs <- fmt.Errorf("expansion must match")
				}
				if a.MatchesPath([]string{"hb-a", "hb-c"}) {
					errs <- fmt.Errorf("group must repeat at least once")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestFlatNamesCachedAtomically races first overlap checks on a hand-built
// non-recursive advertisement: every goroutine must see the full flat view,
// whichever racing store wins.
func TestFlatNamesCachedAtomically(t *testing.T) {
	x := xpath.MustParse("fc-b/fc-c")
	for round := 0; round < 20; round++ {
		a := &Advertisement{Items: []Item{Sym("fc-a"), Sym("fc-b"), Sym("fc-c")}}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !a.Overlaps(x) {
					errs <- fmt.Errorf("fc-b/fc-c must overlap /fc-a/fc-b/fc-c")
				}
				if names := a.FlatNames(); len(names) != 3 || names[2] != "fc-c" {
					errs <- fmt.Errorf("flat names %v", names)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
