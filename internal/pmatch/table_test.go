package pmatch

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// The differential tests below drive a Table through random Add/Set/Remove
// sequences and hold every sealed version to three oracles: a fresh Builder
// over the live entries (same visits, same Stats), a DFS over the version's
// own states (the incrementally kept Stats are true, ids are unique), and
// the answers the version gave when it was sealed (persistence: later writes
// never reach it).

// liveEntry is the test model of one table entry.
type liveEntry struct {
	x       *xpath.XPE
	payload int
	h       Handle
}

// probe is one fixed match question: a path with its attributes.
type probe struct {
	sp    []symtab.Sym
	attrs []map[string]string
}

func randomProbes(r *rand.Rand, n int) []probe {
	ps := make([]probe, n)
	for i := range ps {
		path, attrs := randomPath(r)
		ps[i] = probe{sp: symtab.InternPath(path), attrs: attrs}
	}
	return ps
}

// answers records a version's sorted payloads per probe, with the probe's
// attributes and with none.
func answers(a *Automaton, ps []probe) [][]int {
	out := make([][]int, 0, 2*len(ps))
	for _, p := range ps {
		var got []int
		a.Match(p.sp, p.attrs, func(d any) { got = append(got, d.(int)) })
		sort.Ints(got)
		out = append(out, got, matchInts(a, p.sp))
	}
	return out
}

func sameAnswers(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqInts(a[i], b[i]) {
			return false
		}
	}
	return true
}

// freshBuild compiles the live entries in one shot.
func freshBuild(live []liveEntry) *Automaton {
	b := NewBuilder()
	for _, e := range live {
		b.Add(e.x, e.payload)
	}
	return b.Build()
}

// walkStats counts a version's states by DFS and checks that state and
// entry ids are unique within it and inside the version's stamp bounds.
func walkStats(t *testing.T, a *Automaton) Stats {
	t.Helper()
	var s Stats
	stateIDs := map[int32]bool{}
	entryIDs := map[int32]bool{}
	var walk func(st *state)
	walk = func(st *state) {
		if stateIDs[st.id] || st.id < 0 || st.id >= a.stateIDs {
			t.Fatalf("state id %d duplicated or outside [0,%d)", st.id, a.stateIDs)
		}
		stateIDs[st.id] = true
		s.States++
		s.Edges += len(st.next)
		if st.selfLoop {
			s.Edges++
		}
		if len(st.accept) > 0 {
			s.AcceptStates++
		}
		for _, e := range st.accept {
			if entryIDs[e.id] || e.id < 0 || e.id >= a.entryIDs {
				t.Fatalf("entry id %d duplicated or outside [0,%d)", e.id, a.entryIDs)
			}
			entryIDs[e.id] = true
			s.Entries++
		}
		for i, e := range st.next {
			if i > 0 && st.next[i-1].sym >= e.sym {
				t.Fatalf("state %d: edges not strictly sorted by symbol", st.id)
			}
			walk(e.to)
		}
		if st.wild != nil {
			s.Edges++
			walk(st.wild)
		}
		if st.dslash != nil {
			s.Edges++
			walk(st.dslash)
		}
	}
	walk(a.root)
	return s
}

// randomOp applies one random Add/Set/Remove to tbl and the model. addBias
// in [0,1) is the probability of an Add when entries exist.
func randomOp(r *rand.Rand, add func(*xpath.XPE, any) Handle, set func(Handle, any), remove func(Handle), live []liveEntry, next *int, addBias float64) []liveEntry {
	switch f := r.Float64(); {
	case len(live) == 0 || f < addBias:
		x := randomXPE(r)
		*next++
		live = append(live, liveEntry{x: x, payload: *next, h: add(x, *next)})
	case f < addBias+(1-addBias)/3:
		i := r.Intn(len(live))
		*next++
		set(live[i].h, *next)
		live[i].payload = *next
	default:
		i := r.Intn(len(live))
		remove(live[i].h)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	return live
}

func TestTableDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			probes := randomProbes(r, 20)
			tbl := NewTable()
			var live []liveEntry
			next := 0
			type kept struct {
				a    *Automaton
				want [][]int
			}
			var old []kept
			peak := Stats{}
			// Grow, then shrink, then churn around a steady size, so
			// pruning runs down to the empty table and ids get recycled.
			for op := 0; op < 600; op++ {
				bias := 0.6
				switch {
				case op >= 200 && op < 350:
					bias = 0.2
				case op >= 350:
					bias = 0.45
				}
				live = randomOp(r, tbl.Add, tbl.Set, tbl.Remove, live, &next, bias)

				a := tbl.Seal()
				fresh := freshBuild(live)
				if got, want := a.Stats(), fresh.Stats(); got != want {
					t.Fatalf("op %d: Stats %+v, fresh build %+v", op, got, want)
				}
				if walked := walkStats(t, a); walked != a.Stats() {
					t.Fatalf("op %d: kept Stats %+v, walked %+v", op, a.Stats(), walked)
				}
				if a.NumEntries() != len(live) || tbl.Len() != len(live) {
					t.Fatalf("op %d: entries %d/%d, model %d", op, a.NumEntries(), tbl.Len(), len(live))
				}
				want := answers(fresh, probes)
				if got := answers(a, probes); !sameAnswers(got, want) {
					t.Fatalf("op %d: live version %v, fresh build %v\nexprs=%s", op, got, want, dumpLive(live))
				}
				for _, k := range old {
					if got := answers(k.a, probes); !sameAnswers(got, k.want) {
						t.Fatalf("op %d: a version sealed earlier changed its answers", op)
					}
				}
				if op%9 == 0 {
					old = append(old, kept{a, want})
					if len(old) > 6 {
						old = old[1:]
					}
				}
				if s := a.Stats(); s.States > peak.States {
					peak.States = s.States
				}
				if n := a.NumEntries(); n > peak.Entries {
					peak.Entries = n
				}
				// Recycled ids keep the stamp tables at the table's peak size.
				if int(a.stateIDs) > peak.States || int(a.entryIDs) > peak.Entries {
					t.Fatalf("op %d: id bounds %d/%d exceed peak %d states/%d entries",
						op, a.stateIDs, a.entryIDs, peak.States, peak.Entries)
				}
			}
		})
	}
}

// TestWideStateEdges drives the start state, and the skip state below it,
// to 40 edges each, through inserts and prunes in random order. Every sealed version must keep its edges sorted, match
// exactly the live expressions, and keep its answers after later writes.
func TestWideStateEdges(t *testing.T) {
	const width = 40
	r := rand.New(rand.NewSource(1))
	xs := make([]*xpath.XPE, 2*width)
	paths := make([][]symtab.Sym, width)
	for i := 0; i < width; i++ {
		name := fmt.Sprintf("wide%d", i)
		xs[i] = xpath.MustParse("/" + name)
		xs[width+i] = xpath.MustParse("//" + name)
		paths[i] = symtab.InternPath([]string{name})
	}
	// answers lists, per path, the payloads that match it: i for /wide<i>,
	// width+i for //wide<i>.
	answers := func(a *Automaton) [][]int {
		out := make([][]int, width)
		for i, p := range paths {
			out[i] = matchInts(a, p)
		}
		return out
	}
	tbl := NewTable()
	handles := make([]Handle, len(xs))
	var old *Automaton
	var oldWant [][]int
	for op := 0; op < 600; op++ {
		i := r.Intn(len(xs))
		if handles[i] == (Handle{}) {
			handles[i] = tbl.Add(xs[i], i)
		} else {
			tbl.Remove(handles[i])
			handles[i] = Handle{}
		}
		a := tbl.Seal()
		if walked := walkStats(t, a); walked != a.Stats() {
			t.Fatalf("op %d: kept Stats %+v, walked %+v", op, a.Stats(), walked)
		}
		got := answers(a)
		for j := range paths {
			var want []int
			for _, k := range []int{j, width + j} {
				if handles[k] != (Handle{}) {
					want = append(want, k)
				}
			}
			if !eqInts(got[j], want) {
				t.Fatalf("op %d: /wide%d matches %v, want %v", op, j, got[j], want)
			}
		}
		if old != nil && !sameAnswers(answers(old), oldWant) {
			t.Fatalf("op %d: a version sealed earlier changed its answers", op)
		}
		if op%50 == 0 {
			old, oldWant = a, got
		}
	}
}

func dumpLive(live []liveEntry) string {
	xs := make([]*xpath.XPE, len(live))
	for i, e := range live {
		xs[i] = e.x
	}
	return dumpExprs(xs)
}

func TestTableSealWithoutWritesIsStable(t *testing.T) {
	tbl := NewTable()
	h := tbl.Add(xpath.MustParse("/a/b"), 1)
	a1 := tbl.Seal()
	if tbl.Seal() != a1 {
		t.Fatal("Seal without writes must return the same version")
	}
	tbl.Set(h, 2)
	a2 := tbl.Seal()
	if a2 == a1 {
		t.Fatal("Seal after Set must return a new version")
	}
	path := symtab.InternPath([]string{"a", "b"})
	if got := matchInts(a1, path); !eqInts(got, []int{1}) {
		t.Fatalf("old version sees %v, want [1]", got)
	}
	if got := matchInts(a2, path); !eqInts(got, []int{2}) {
		t.Fatalf("new version sees %v, want [2]", got)
	}
	// Untouched states are shared: only the path to the accept state was
	// copied.
	tbl.Add(xpath.MustParse("/c"), 3)
	a3 := tbl.Seal()
	if a3.root == a2.root || a3.root.step(symtab.Intern("a")) != a2.root.step(symtab.Intern("a")) {
		t.Fatal("an Add under /c must copy the start state and share the /a subtree")
	}
}

func TestTableZeroAndDeadHandles(t *testing.T) {
	tbl := NewTable()
	tbl.Set(Handle{}, 1)
	tbl.Remove(Handle{})
	if h := tbl.Add(&xpath.XPE{}, 1); h != (Handle{}) {
		t.Fatalf("zero-step expression yields handle %+v, want the zero Handle", h)
	}
	h := tbl.Add(xpath.MustParse("//a/b"), 1)
	tbl.Remove(h)
	tbl.Remove(h) // dead: ignored until the id is reused
	tbl.Set(h, 2)
	if s := tbl.Seal().Stats(); s != (Stats{States: 1}) {
		t.Fatalf("after add+remove: %+v, want the bare start state", s)
	}
}

func TestTableReset(t *testing.T) {
	tbl := NewTable()
	tbl.Add(xpath.MustParse("/a/b"), 1)
	before := tbl.Seal()
	tbl.Reset()
	tbl.Add(xpath.MustParse("/a"), 2)
	after := tbl.Seal()
	path := symtab.InternPath([]string{"a", "b"})
	if got := matchInts(before, path); !eqInts(got, []int{1}) {
		t.Fatalf("version sealed before Reset sees %v", got)
	}
	if got := matchInts(after, path); !eqInts(got, []int{2}) {
		t.Fatalf("version after Reset sees %v", got)
	}
	if s := after.Stats(); s.States != 2 || s.Entries != 1 {
		t.Fatalf("after Reset: %+v", s)
	}
}

// matchInts runs Match without attributes and returns the sorted payloads.
func matchInts(a *Automaton, path []symtab.Sym) []int {
	var got []int
	a.Match(path, nil, func(d any) { got = append(got, d.(int)) })
	sort.Ints(got)
	return got
}

// cursorPath drives a Cursor down one path with the stream post-filter
// protocol; its settled payloads equal Match over that path.
func cursorPath(a *Automaton, p probe) []int {
	c := a.Cursor()
	defer c.Release()
	var got []int
	for i, sym := range p.sp {
		c.Enter(sym, func(x *xpath.XPE, hasPreds bool, data any) bool {
			if hasPreds && !x.MatchesSymPathAttrs(p.sp[:i+1], p.attrs[:i+1]) {
				return false
			}
			got = append(got, data.(int))
			return true
		})
	}
	sort.Ints(got)
	return got
}

// TestTableConcurrentReaders runs Match and Cursor readers on old and new
// versions while the writer keeps editing and sealing. Under -race any write
// into a state a sealed version can reach is reported; any corruption shows
// up as a version disagreeing with the answers it gave when sealed.
func TestTableConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	probes := randomProbes(r, 16)
	tbl := NewTable()
	var live []liveEntry
	next := 0
	for i := 0; i < 40; i++ {
		live = randomOp(r, tbl.Add, tbl.Set, tbl.Remove, live, &next, 1)
	}
	type version struct {
		a    *Automaton
		want [][]int
	}
	var mu sync.RWMutex
	versions := []version{{tbl.Seal(), answers(tbl.Seal(), probes)}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.RLock()
				v := versions[rr.Intn(len(versions))]
				mu.RUnlock()
				i := rr.Intn(len(probes))
				var got []int
				v.a.Match(probes[i].sp, probes[i].attrs, func(d any) { got = append(got, d.(int)) })
				sort.Ints(got)
				if !eqInts(got, v.want[2*i]) {
					t.Errorf("reader %d: Match %v, sealed answer %v", g, got, v.want[2*i])
					return
				}
				if got := cursorPath(v.a, probes[i]); !eqInts(got, v.want[2*i]) {
					t.Errorf("reader %d: Cursor %v, sealed answer %v", g, got, v.want[2*i])
					return
				}
			}
		}(g)
	}
	for op := 0; op < 300; op++ {
		live = randomOp(r, tbl.Add, tbl.Set, tbl.Remove, live, &next, 0.5)
		a := tbl.Seal()
		v := version{a, answers(a, probes)}
		mu.Lock()
		versions = append(versions, v)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentRebuildAndMatch pins, under -race, the way the broker uses
// a table: one writer edits and seals while matcher goroutines run Match and
// Cursor walks against whatever version an atomic pointer holds. The writer
// removes and re-adds random entries (sometimes re-pointing them too) and
// seals only after whole pairs, so every published version holds the same
// entry set and the per-expression oracle never changes. Any write into a
// sealed version is a race; any corruption is an oracle mismatch.
func TestConcurrentRebuildAndMatch(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tbl := NewTable()
	xs := make([]*xpath.XPE, 120)
	hs := make([]Handle, len(xs))
	for i := range xs {
		xs[i] = randomXPE(r)
		hs[i] = tbl.Add(xs[i], i)
	}
	var ptr atomic.Pointer[Automaton]
	ptr.Store(tbl.Seal())

	probes := randomProbes(r, 50)
	want := make([][]int, len(probes))
	for i, p := range probes {
		want[i] = oracle.Flat(xs, oracle.Names(p.sp), p.attrs, true)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				i := k % len(probes)
				a := ptr.Load()
				var got []int
				a.Match(probes[i].sp, probes[i].attrs, func(d any) { got = append(got, d.(int)) })
				sort.Ints(got)
				if !eqInts(got, want[i]) {
					t.Errorf("matcher %d: Match %v want %v", g, got, want[i])
					return
				}
				if got := cursorPath(a, probes[i]); !eqInts(got, want[i]) {
					t.Errorf("matcher %d: Cursor %v want %v", g, got, want[i])
					return
				}
			}
		}(g)
	}
	for round := 0; round < 200; round++ {
		for k := 1 + r.Intn(8); k > 0; k-- {
			i := r.Intn(len(xs))
			tbl.Remove(hs[i])
			hs[i] = tbl.Add(xs[i], i)
			if r.Intn(3) == 0 {
				tbl.Set(hs[i], i)
			}
		}
		ptr.Store(tbl.Seal())
	}
	close(stop)
	wg.Wait()
}
