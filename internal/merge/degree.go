package merge

import (
	"sort"
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
	seen := make(map[string]bool)
	var universe [][]string
	for _, a := range advs {
		if len(universe) >= maxPaths {
			break
		}
		a.Expansions(maxLen, func(w []string) bool {
			key := strings.Join(w, "/")
			if !seen[key] {
				seen[key] = true
				universe = append(universe, w)
			}
			return len(universe) < maxPaths
		})
	}
	// Deterministic order independent of advertisement enumeration detail.
	sort.Slice(universe, func(i, j int) bool {
		return strings.Join(universe[i], "/") < strings.Join(universe[j], "/")
	})
	e := &DegreeEstimator{universe: make([][]symtab.Sym, len(universe))}
	for i, w := range universe {
		e.universe[i] = symtab.InternPath(w)
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
