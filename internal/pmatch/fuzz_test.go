package pmatch

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/oracle"
	"repro/internal/symtab"
	"repro/internal/xpath"
)

// FuzzAutomatonEquivalence cross-checks the shared automaton's accept set
// against flat per-XPE evaluation by the reference (oracle.Selects),
// predicates evaluated. The fuzzer supplies a ';'-separated list of
// expressions and a '/'-separated publication path whose elements may carry
// one attribute as "name@key=value"; unparsable expressions are skipped, so
// any byte soup still exercises the comparison. A mismatch would mean the
// shared automaton routes differently from the per-subscription semantics —
// the one bug class this package must never ship.
//
// With empty ops the expressions are bulk-built. Otherwise ops is an edit
// script for a Table, one op per byte: below 128 adds expression b%len, below
// 192 re-points a live entry to a fresh payload, the rest remove one. The
// final version must match the oracle over the live entries and have a fresh
// build's Stats, and a version sealed halfway must still give the answer it
// gave when sealed.
func FuzzAutomatonEquivalence(f *testing.F) {
	f.Add("/a/b;//c;a/*", "a/b/c", []byte(nil))
	f.Add("/a//b;b//c;//*", "a/x/b/c", []byte(nil))
	f.Add("*;/a;//a/a", "a/a/a", []byte(nil))
	f.Add("/a[@k='v']/b;a/b", "a/b", []byte(nil))
	f.Add("/a/b;//c;a/*;/a//c", "a/b/c", []byte{0, 1, 2, 3, 200, 130, 0, 255, 66})
	f.Add("//a;//a/b;/a/b/c", "a/b/c", []byte{0, 1, 2, 250, 251, 252, 2, 1, 0})
	f.Add("/a[@k='v']/b;a[@k='w'];//b[@j='x']", "a@k=v/b@j=x", []byte(nil))
	f.Fuzz(func(t *testing.T, exprList, pathStr string, ops []byte) {
		var xs []*xpath.XPE
		for _, src := range strings.Split(exprList, ";") {
			if len(src) > 80 {
				continue // keep match cost bounded
			}
			x, err := xpath.Parse(src)
			if err != nil {
				continue
			}
			xs = append(xs, x)
		}

		var path []string
		var attrs []map[string]string
		for _, el := range strings.Split(pathStr, "/") {
			if el == "" {
				continue
			}
			name, attr, _ := strings.Cut(el, "@")
			var m map[string]string
			if k, v, ok := strings.Cut(attr, "="); ok {
				m = map[string]string{k: v}
			}
			path = append(path, name)
			attrs = append(attrs, m)
			if len(path) >= 12 {
				break
			}
		}
		sp := symtab.InternPath(path)
		match := func(a *Automaton) []int {
			var got []int
			a.Match(sp, attrs, func(d any) { got = append(got, d.(int)) })
			sort.Ints(got)
			return got
		}

		// live maps each payload to its expression.
		live := map[int]*xpath.XPE{}
		reference := func() []int {
			var want []int
			for p, x := range live {
				if oracle.Selects(x, path, attrs, true) {
					want = append(want, p)
				}
			}
			sort.Ints(want)
			return want
		}
		var auto *Automaton
		if len(ops) == 0 {
			b := NewBuilder()
			for i, x := range xs {
				b.Add(x, i)
				live[i] = x
			}
			auto = b.Build()
		} else {
			if len(ops) > 64 {
				ops = ops[:64]
			}
			tbl := NewTable()
			handles := map[int]Handle{}
			var order []int // live payloads in a deterministic order
			var mid *Automaton
			var midWant []int
			for i, op := range ops {
				if i == len(ops)/2 {
					mid, midWant = tbl.Seal(), reference()
				}
				switch {
				case len(xs) == 0:
				case op < 128 || len(order) == 0:
					p := i + 1
					x := xs[int(op)%len(xs)]
					handles[p] = tbl.Add(x, p)
					live[p] = x
					order = append(order, p)
				case op < 192:
					k := int(op) % len(order)
					old, p := order[k], -(i + 1)
					tbl.Set(handles[old], p)
					handles[p], live[p] = handles[old], live[old]
					delete(handles, old)
					delete(live, old)
					order[k] = p
				default:
					k := int(op) % len(order)
					p := order[k]
					tbl.Remove(handles[p])
					delete(handles, p)
					delete(live, p)
					order = append(order[:k], order[k+1:]...)
				}
			}
			auto = tbl.Seal()
			fresh := NewBuilder()
			for _, p := range order {
				fresh.Add(live[p], p)
			}
			if got, want := auto.Stats(), fresh.Build().Stats(); got != want {
				t.Fatalf("Stats %+v, fresh build %+v\nexprs=%s", got, want, dumpExprs(xs))
			}
			if mid != nil {
				if got := match(mid); !eqInts(got, midWant) {
					t.Fatalf("version sealed halfway now gives %v, gave %v", got, midWant)
				}
			}
		}

		got := match(auto)
		if want := reference(); !eqInts(got, want) {
			t.Fatalf("accept sets diverge on path %q:\nautomaton=%v\nflat=%v\nexprs=%s",
				path, got, want, dumpExprs(xs))
		}
	})
}
