package symtab

import (
	"fmt"
	"runtime"
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
	// The group brackets have no name: nothing interns to them, so an
	// advertisement element read off the wire can never open a group.
	for _, s := range []Sym{GroupOpen, GroupClose} {
		if got := tb.NameOf(s); got != "" {
			t.Fatalf("NameOf(%d) = %q, want empty", s, got)
		}
	}
	for _, name := range []string{"", "(", ")", ")+", "(...)+"} {
		if got := tb.Intern(name); got < FirstDynamic {
			t.Fatalf("Intern(%q) = %d, inside the reserved range", name, got)
		}
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

// TestInternCostFlat pins the insert cost: the bytes a new name allocates
// stay flat as the table grows, from the 1,000th name to the 40,000th. A
// table that copies itself per insert fails by orders of magnitude. The
// seed is fixed, so the trie's shape, and the count, are deterministic.
func TestInternCostFlat(t *testing.T) {
	const window = 1000
	names := make([]string, 40*window)
	for i := range names {
		names[i] = fmt.Sprintf("name%05d", i)
	}
	tb := newTable(1, ^uint64(0))
	var ms runtime.MemStats
	perName := func(from int) float64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for _, n := range names[from : from+window] {
			tb.Intern(n)
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / window
	}
	for _, n := range names[:window] {
		tb.Intern(n)
	}
	early := perName(window)
	for _, n := range names[2*window : len(names)-window] {
		tb.Intern(n)
	}
	late := perName(len(names) - window)
	t.Logf("bytes per new name: %.1f at 1,000 names, %.1f at 39,000", early, late)
	if late > 1.25*early {
		t.Errorf("bytes per new name grew from %.1f to %.1f as the table grew 39x", early, late)
	}
	if got := tb.Len(); got != len(names)+2 {
		t.Fatalf("Len = %d, want %d", got, len(names)+2)
	}
}

// TestLookupAllocFree pins the read path at zero allocations, for names
// held as strings and as bytes, present or not.
func TestLookupAllocFree(t *testing.T) {
	tb := NewTable()
	tb.InternPath([]string{"alpha", "beta", "gamma"})
	hit, miss := []byte("beta"), []byte("delta")
	avg := testing.AllocsPerRun(100, func() {
		tb.Lookup("gamma")
		tb.Lookup("delta")
		tb.LookupBytes(hit)
		tb.LookupBytes(miss)
		tb.NameOf(FirstDynamic)
	})
	if avg != 0 {
		t.Errorf("lookups allocate %.1f/op, want 0", avg)
	}
}

// TestHashCollisions keeps only a few hash bits, so names share trie slots
// all the way down and whole hashes collide: every name must still intern
// to its own symbol and be found again by string and by bytes.
func TestHashCollisions(t *testing.T) {
	for _, mask := range []uint64{0, 0x3, 0xff, 0xf0f0} {
		tb := newTable(7, mask)
		syms := make(map[Sym]string)
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("c%d", i)
			s := tb.Intern(name)
			if prev, dup := syms[s]; dup {
				t.Fatalf("mask %#x: %q and %q share symbol %d", mask, prev, name, s)
			}
			syms[s] = name
		}
		for s, name := range syms {
			if got, ok := tb.Lookup(name); !ok || got != s {
				t.Fatalf("mask %#x: Lookup(%q) = %d, %v; want %d", mask, name, got, ok, s)
			}
			if got, ok := tb.LookupBytes([]byte(name)); !ok || got != s {
				t.Fatalf("mask %#x: LookupBytes(%q) = %d, %v; want %d", mask, name, got, ok, s)
			}
			if tb.NameOf(s) != name {
				t.Fatalf("mask %#x: NameOf(%d) = %q, want %q", mask, s, tb.NameOf(s), name)
			}
		}
		if _, ok := tb.LookupBytes([]byte("c300")); ok {
			t.Fatalf("mask %#x: a name never interned was found", mask)
		}
		if got := tb.Intern(WildcardName); got != Wildcard {
			t.Fatalf("mask %#x: Intern(*) = %d, want Wildcard", mask, got)
		}
	}
}

// sink keeps the benchmarks' results live.
var sink Sym

// benchNames is an element alphabet the size of NITF's (about 120 names).
func benchNames() []string {
	names := make([]string, 128)
	for i := range names {
		names[i] = fmt.Sprintf("element-%d", i)
	}
	return names
}

// BenchmarkLookup reads names the table holds and names it does not, the
// two cases a decoded publication path meets.
func BenchmarkLookup(b *testing.B) {
	tb := NewTable()
	names := benchNames()
	tb.InternPath(names)
	absent := make([]string, len(names))
	for i, n := range names {
		absent[i] = n + "-absent"
	}
	b.Run("present", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = tb.Lookup(names[i%len(names)])
		}
	})
	b.Run("absent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink, _ = tb.Lookup(absent[i%len(absent)])
		}
	})
}

// BenchmarkIntern interns names the table already holds (the lock-free
// path a decoded advertisement takes for a known element) and fresh names
// (the writer path), restarting from an empty table every 4,096 names so
// the table stays the size of a real alphabet.
func BenchmarkIntern(b *testing.B) {
	names := benchNames()
	const batch = 4096
	fresh := make([]string, batch)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh-%d", i)
	}
	b.Run("present", func(b *testing.B) {
		tb := NewTable()
		tb.InternPath(names)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = tb.Intern(names[i%len(names)])
		}
	})
	b.Run("fresh", func(b *testing.B) {
		tb := NewTable()
		for i := 0; i < b.N; i++ {
			if i%batch == 0 && i > 0 {
				b.StopTimer()
				tb = NewTable()
				b.StartTimer()
			}
			sink = tb.Intern(fresh[i%batch])
		}
	})
}
