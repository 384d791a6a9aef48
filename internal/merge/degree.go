package merge

import (
	"slices"
	"strings"

	"repro/internal/advert"
	"repro/internal/symtab"
)

// DegreeEstimator estimates the imperfect degree of a merger against the
// universe of publication paths a producer's advertisement set admits (the
// paper assumes brokers know the producer DTD; the advertisement set derived
// from it is an equivalent and more convenient carrier of the same
// information).
type DegreeEstimator struct {
	universe [][]symtab.Sym // interned once, matched many times
}

// NewDegreeEstimator enumerates the publication-path universe: expansions of
// the advertisements up to maxLen elements, capped at maxPaths paths
// (deterministically, advertisement by advertisement).
func NewDegreeEstimator(advs []*advert.Advertisement, maxLen, maxPaths int) *DegreeEstimator {
	type path struct {
		key  string // the names joined by "/"
		syms []symtab.Sym
	}
	seen := make(map[string]bool)
	var universe []path
	for _, a := range advs {
		if len(universe) >= maxPaths {
			break
		}
		a.Expansions(maxLen, func(w []symtab.Sym) bool {
			names := make([]string, len(w))
			for i, s := range w {
				names[i] = symtab.NameOf(s)
			}
			key := strings.Join(names, "/")
			if !seen[key] {
				seen[key] = true
				universe = append(universe, path{key, w})
			}
			return len(universe) < maxPaths
		})
	}
	// Deterministic order independent of advertisement enumeration detail.
	slices.SortFunc(universe, func(x, y path) int { return strings.Compare(x.key, y.key) })
	e := &DegreeEstimator{universe: make([][]symtab.Sym, len(universe))}
	for i, p := range universe {
		e.universe[i] = p.syms
	}
	return e
}

// Degree estimates D_imperfect = |P(m) − ∪P(si)| / |P(m)| over the
// enumerated universe, assuming uniformly distributed publications as the
// paper does. A merger matching nothing has degree 0.
func (e *DegreeEstimator) Degree(m *Merger) float64 {
	matched, extra := 0, 0
paths:
	for _, p := range e.universe {
		if !m.Result.MatchesSymPath(p) {
			continue
		}
		matched++
		for _, s := range m.Sources {
			if s.MatchesSymPath(p) {
				continue paths
			}
		}
		extra++
	}
	if matched == 0 {
		return 0
	}
	return float64(extra) / float64(matched)
}
