package xpath

import "repro/internal/symtab"

// MatchesWith is MatchesSymPathAttrs (or, without preds, MatchesSymPath)
// with the engine forced: the table when memo is set, the recursion
// otherwise. Tests hold each engine to the reference and to the other on
// every expression, not only on those needsMemo routes to it.
func (x *XPE) MatchesWith(memo bool, path []symtab.Sym, attrs []map[string]string, preds bool) bool {
	if len(x.Steps) == 0 {
		return false
	}
	e := evaluator{steps: x.Steps, syms: x.Syms(), path: path, attrs: attrs, preds: preds}
	return e.run(x.Relative, memo)
}
