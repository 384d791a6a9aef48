package symtab

import (
	"fmt"
	"sync"
	"testing"
)

func TestSentinels(t *testing.T) {
	tb := NewTable()
	if got := tb.Intern(WildcardName); got != Wildcard {
		t.Fatalf("Intern(%q) = %d, want Wildcard (%d)", WildcardName, got, Wildcard)
	}
	if got := tb.Intern(AttrName); got != Attr {
		t.Fatalf("Intern(%q) = %d, want Attr (%d)", AttrName, got, Attr)
	}
	if got := tb.NameOf(Wildcard); got != WildcardName {
		t.Fatalf("NameOf(Wildcard) = %q", got)
	}
	if got := tb.NameOf(None); got != "" {
		t.Fatalf("NameOf(None) = %q, want empty", got)
	}
	if _, ok := tb.Lookup("never-interned"); ok {
		t.Fatal("Lookup of unknown name reported ok")
	}
	if got := tb.Len(); got != 2 {
		t.Fatalf("empty table Len = %d, want 2 sentinels", got)
	}
}

func TestInternAssignsStableSymbols(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("a")
	b := tb.Intern("b")
	if a < FirstDynamic || b < FirstDynamic {
		t.Fatalf("dynamic symbols %d, %d collide with the reserved range", a, b)
	}
	if a == b {
		t.Fatalf("distinct names interned to the same symbol %d", a)
	}
	if again := tb.Intern("a"); again != a {
		t.Fatalf("re-interning changed the symbol: %d then %d", a, again)
	}
	if got, ok := tb.Lookup("a"); !ok || got != a {
		t.Fatalf("Lookup(a) = %d, %v; want %d, true", got, ok, a)
	}
	if got := tb.NameOf(a); got != "a" {
		t.Fatalf("NameOf(%d) = %q, want \"a\"", a, got)
	}
	if got := tb.NameOf(Sym(1 << 20)); got != "" {
		t.Fatalf("NameOf(out of range) = %q, want empty", got)
	}
	if got := tb.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 (two sentinels + a + b)", got)
	}
}

func TestPathConversion(t *testing.T) {
	tb := NewTable()
	syms := tb.InternPath([]string{"x", "*", "x"})
	if syms[0] != syms[2] || syms[0] == syms[1] {
		t.Fatalf("InternPath symbols inconsistent: %v", syms)
	}
	if syms[1] != Wildcard {
		t.Fatalf("InternPath(*) = %d, want Wildcard", syms[1])
	}
	looked := tb.LookupPath([]string{"x", "unknown"})
	if looked[0] != syms[0] {
		t.Fatalf("LookupPath(x) = %d, want %d", looked[0], syms[0])
	}
	if looked[1] != None {
		t.Fatalf("LookupPath(unknown) = %d, want None", looked[1])
	}
}

func TestDefaultTable(t *testing.T) {
	s := Intern("symtab-default-test-name")
	if got, ok := Lookup("symtab-default-test-name"); !ok || got != s {
		t.Fatalf("Default Lookup = %d, %v; want %d, true", got, ok, s)
	}
	if NameOf(s) != "symtab-default-test-name" {
		t.Fatalf("Default NameOf(%d) = %q", s, NameOf(s))
	}
	if got := InternPath([]string{"*"}); got[0] != Wildcard {
		t.Fatalf("Default InternPath(*) = %v", got)
	}
	var room [4]Sym
	got := AppendInternPath(room[:1], []string{"symtab-default-test-name", "*"})
	if len(got) != 3 || &got[0] != &room[0] || got[1] != s || got[2] != Wildcard {
		t.Fatalf("Default AppendInternPath = %v, want [0 %d %d] in the caller's room", got, s, Wildcard)
	}
	if got := LookupPath([]string{"symtab-default-test-name"}); got[0] != s {
		t.Fatalf("Default LookupPath = %v, want [%d]", got, s)
	}
}

// TestConcurrentInternLookup hammers one table from many goroutines that
// both intern a shared alphabet and read back earlier assignments; run under
// -race it proves the lock-free read path never observes a torn snapshot,
// and the final table must hold exactly one stable symbol per name.
func TestConcurrentInternLookup(t *testing.T) {
	const (
		goroutines = 16
		names      = 200
	)
	tb := NewTable()
	name := func(i int) string { return fmt.Sprintf("elem%03d", i) }
	var wg sync.WaitGroup
	results := make([][]Sym, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]Sym, names)
			for i := 0; i < names; i++ {
				// Interleave interning with lock-free reads of names that
				// other goroutines may be installing concurrently.
				out[i] = tb.Intern(name(i))
				if sym, ok := tb.Lookup(name(i)); !ok || sym != out[i] {
					t.Errorf("goroutine %d: Lookup(%q) = %d, %v after Intern returned %d", g, name(i), sym, ok, out[i])
					return
				}
				if got := tb.NameOf(out[i]); got != name(i) {
					t.Errorf("goroutine %d: NameOf(%d) = %q, want %q", g, out[i], got, name(i))
					return
				}
				tb.LookupPath([]string{name(i), name((i * 7) % names), "not-there"})
			}
			results[g] = out
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutines 0 and %d disagree on %q: %d vs %d", g, name(i), results[0][i], results[g][i])
			}
		}
	}
	if got := tb.Len(); got != names+2 {
		t.Fatalf("Len = %d after concurrent interning, want %d", got, names+2)
	}
}
