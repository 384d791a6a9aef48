package xpath

import (
	"sync/atomic"

	"repro/internal/symtab"
)

// This file threads the interned symbol alphabet (package symtab) through
// expression matching. An XPE lazily compiles its step name tests into
// []symtab.Sym once and caches the result, so the publication hot path
// compares uint32 symbols instead of strings; publication paths are
// converted once per hop (xmldoc.Publication.SymPath).

// Syms returns the interned name tests of all steps, with wildcard steps
// mapped to symtab.Wildcard. The slice is computed against the symtab
// Default table — and ONLY that table — on first use and cached; callers
// must treat it as read-only. It is safe for concurrent use: racing first
// calls compute equivalent slices and publish one atomically.
//
// The cache is keyed to nothing: it is valid precisely because Syms always
// interns against symtab.Default and a table never reassigns a symbol. A
// caller needing another table must use SymsIn, which guards the cache
// against cross-table pollution.
func (x *XPE) Syms() []symtab.Sym {
	return x.SymsIn(symtab.Default)
}

// SymsIn is Syms against an explicit symbol table. Results are cached only
// for symtab.Default; any other table is converted afresh on every call, so
// a multi-table caller can never read symbols cached from a different
// table (the symbols of two tables are unrelated integers — mixing them up
// would silently mis-route). TestSymsCacheIsDefaultTableOnly pins this.
func (x *XPE) SymsIn(t *symtab.Table) []symtab.Sym {
	cacheable := t == symtab.Default
	if cacheable {
		if s := x.syms.Load(); s != nil {
			return *s
		}
	}
	syms := make([]symtab.Sym, len(x.Steps))
	for i, st := range x.Steps {
		syms[i] = t.Intern(st.Name)
	}
	if cacheable {
		x.syms.Store(&syms)
	}
	return syms
}

// SymOverlaps implements the advertisement/subscription overlap rule of the
// paper (Fig. 2(b)) over interned symbols: two name tests overlap unless
// both are concrete element names and differ.
func SymOverlaps(a, b symtab.Sym) bool {
	return a == symtab.Wildcard || b == symtab.Wildcard || a == b
}

// SymCovers is SymbolCovers over interned symbols: a covers b if a is the
// wildcard, or both are concrete and equal.
func SymCovers(a, b symtab.Sym) bool {
	if a == symtab.Wildcard {
		return true
	}
	return b != symtab.Wildcard && a == b
}

// StepCoversSym is StepCovers with the name-test comparison done on
// pre-interned symbols (sa, sb are the interned names of a, b). It lets bulk
// covering scans avoid re-comparing strings for every step pair.
func StepCoversSym(sa, sb symtab.Sym, a, b Step) bool {
	return SymCovers(sa, sb) && predsCover(a, b)
}

// symsView is the cached compiled form; a named type keeps the XPE field
// declaration readable.
type symsView = atomic.Pointer[[]symtab.Sym]
