package advert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/symtab"
	"repro/internal/xpath"
)

// randomAdvFrom builds a random advertisement (possibly with nested groups)
// from a seed-derived source.
func randomAdvFrom(r *rand.Rand) *Advertisement {
	alphabet := []string{"a", "b", "c", xpath.Wildcard}
	var build func(depth, n int) []Item
	build = func(depth, n int) []Item {
		var items []Item
		for i := 0; i < n; i++ {
			if depth < 2 && r.Intn(4) == 0 {
				items = append(items, Item{Group: build(depth+1, 1+r.Intn(2))})
			} else {
				items = append(items, Sym(alphabet[r.Intn(len(alphabet))]))
			}
		}
		return items
	}
	return NewAdvertisement(build(0, 1+r.Intn(4))...)
}

// TestQuickAdvParseRoundTrip: String and Parse are inverses for arbitrary
// advertisements.
func TestQuickAdvParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdvFrom(r)
		b, err := Parse(a.String())
		return err == nil && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickExpansionsMatchPath: every enumerated expansion of an
// advertisement is accepted by its own path matcher, and expansions respect
// the length bound.
func TestQuickExpansionsMatchPath(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdvFrom(r)
		ok := true
		count := 0
		a.Expansions(a.MinLen()+4, func(w []symtab.Sym) bool {
			count++
			if len(w) > a.MinLen()+4 || !a.MatchesSymPath(w) {
				ok = false
				return false
			}
			return count < 200
		})
		return ok && count > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMinLenIsShortestExpansion: no expansion is shorter than MinLen,
// and an expansion of exactly MinLen exists.
func TestQuickMinLenIsShortestExpansion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAdvFrom(r)
		min := a.MinLen()
		sawMin := false
		ok := true
		a.Expansions(min+3, func(w []symtab.Sym) bool {
			if len(w) < min {
				ok = false
				return false
			}
			if len(w) == min {
				sawMin = true
			}
			return true
		})
		return ok && sawMin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
