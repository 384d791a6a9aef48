package advert

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/symtab"
)

// TestMatchesPathDoesNotGrowInterner pins the hot-path contract: matching a
// foreign publication path against a constructor-built advertisement must
// not intern the path's element names — the path is converted with Lookup
// and unknown names only ever match wildcard edges.
func TestMatchesPathDoesNotGrowInterner(t *testing.T) {
	// A non-recursive advertisement compares in place; a recursive one runs
	// its automaton.
	for _, a := range []*Advertisement{MustParse("/eager-root/*/eager-leaf"), MustParse("/eager-root(/*)+/eager-leaf")} {
		// Construction interned the advertisement's own names.
		for _, name := range []string{"eager-root", "eager-leaf"} {
			if _, ok := symtab.Lookup(name); !ok {
				t.Fatalf("construction must intern edge name %q", name)
			}
		}
		before := symtab.Default.Len()
		foreign := []string{"eager-root", "foreign-elem-1", "eager-leaf"}
		if !a.MatchesPath(foreign) {
			t.Fatalf("%s: wildcard must match the foreign element", a)
		}
		if a.MatchesPath([]string{"foreign-elem-2", "foreign-elem-3", "eager-leaf"}) {
			t.Fatalf("%s: foreign element must not match a concrete edge", a)
		}
		if after := symtab.Default.Len(); after != before {
			t.Fatalf("%s: MatchesPath grew the interner: %d -> %d", a, before, after)
		}
		if _, ok := symtab.Lookup("foreign-elem-1"); ok {
			t.Fatalf("%s: foreign path element was interned", a)
		}
	}
}

// TestConstructorsInternNames verifies every constructor interns the
// advertisement's names at construction, control-plane time, so a later
// MatchesPath can convert a publication path with Lookup alone.
func TestConstructorsInternNames(t *testing.T) {
	cases := map[string]func() *Advertisement{
		"Parse":            func() *Advertisement { return MustParse("/ci-parse-a(/ci-parse-b)+") },
		"NewAdvertisement": func() *Advertisement { return NewAdvertisement(Sym("ci-new-a"), Rep(Sym("ci-new-b"))) },
		"FromPath":         func() *Advertisement { return FromPath("ci-path-a", "ci-path-b") },
	}
	for name, build := range cases {
		a := build()
		for _, tok := range a.Tokens() {
			if !isName(tok) {
				continue
			}
			if n := symtab.NameOf(tok); n == "" || !strings.HasPrefix(n, "ci-") {
				t.Errorf("%s: token %d names %q", name, tok, n)
			} else if got, ok := symtab.Lookup(n); !ok || got != tok {
				t.Errorf("%s: %q not interned as %d", name, n, tok)
			}
		}
		if a.nfaCached.Load() != nil {
			t.Errorf("%s: automaton compiled before any match", name)
		}
	}
	if _, err := Parse("/ci-unparsed(/x"); err == nil {
		t.Fatal("unterminated group parsed")
	}
	if _, ok := symtab.Lookup("ci-unparsed"); ok {
		t.Error("a failed parse interned its names")
	}
}

// TestFirstMatchCompilesAtomically races first matches on a fresh recursive
// advertisement: the CAS publication of its lazily compiled automaton must
// hand every goroutine a fully built automaton with consistent results.
func TestFirstMatchCompilesAtomically(t *testing.T) {
	for round := 0; round < 20; round++ {
		a := NewAdvertisement(Sym("hb-a"), Rep(Sym("hb-b")), Sym("hb-c"))
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
