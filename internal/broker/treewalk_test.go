package broker

import (
	"sort"
	"testing"

	"repro/internal/oracle"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// routeVerdict is what one publication should do at a broker: the peers it
// reaches (neighbour forwards and client deliveries, durable subscriptions
// under their virtual-client key, sorted) and the delivery and
// false-positive counts it adds to Stats.
type routeVerdict struct {
	dests          []string
	deliveries     int64
	falsePositives int64
}

// treeWalkRoute is the reference router the shared automaton is held to:
// the paper's covering-pruned walk of the master PRT, where every matched
// node contributes its last hops except from, followed by the edge filter,
// which passes a client hop only when one of the client's own
// subscriptions selects some path of the publication. Both walk the
// publication's decomposed sym-paths. It reads the master tables under the
// shared lock, so control messages cannot interleave.
func treeWalkRoute(t *testing.T, b *Broker, m *Message, from string) routeVerdict {
	t.Helper()
	paths, attrs := decompose(t, m)
	b.mu.RLock()
	defer b.mu.RUnlock()
	hops := make(map[string]bool)
	for i, path := range paths {
		oracle.Walk(b.prt, selects(path, attrs[i]), func(n *subtree.Node) {
			if st := stateOf(n); st != nil {
				for _, hop := range st.lastHops {
					if hop != from {
						hops[hop] = true
					}
				}
			}
		})
	}
	var v routeVerdict
	for hop := range hops {
		if b.clients[hop] {
			if !anyPathMatches(b.clientSubs[hop], paths, attrs) {
				v.falsePositives++
				continue
			}
			v.deliveries++
		}
		v.dests = append(v.dests, hop)
	}
	sort.Strings(v.dests)
	return v
}

// decompose splits a publication into its annotated sym-paths: the single
// path of a path publication, every root-to-leaf path of a document (parsed
// from its bytes first).
func decompose(t *testing.T, m *Message) ([][]symtab.Sym, [][]map[string]string) {
	t.Helper()
	if len(m.Raw) > 0 {
		doc, err := xmldoc.Parse(m.Raw)
		if err != nil {
			t.Fatalf("oracle cannot parse raw body %q: %v", m.Raw, err)
		}
		return doc.AnnotatedSymPaths()
	}
	path := m.Pub.SymPath
	if path == nil {
		path = symtab.InternPath(m.Pub.Path)
	}
	return [][]symtab.Sym{path}, [][]map[string]string{m.Pub.Attrs}
}

func anyPathMatches(subs map[string]clientFilter, paths [][]symtab.Sym, attrs [][]map[string]string) bool {
	for i, path := range paths {
		match := selects(path, attrs[i])
		for _, f := range subs {
			if match(f.xpe) {
				return true
			}
		}
	}
	return false
}

// selects is the reference match of one annotated sym-path, predicates
// evaluated.
func selects(path []symtab.Sym, attrs []map[string]string) func(*xpath.XPE) bool {
	names := oracle.Names(path)
	return func(x *xpath.XPE) bool { return oracle.Selects(x, names, attrs, true) }
}
