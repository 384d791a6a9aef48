// Package stream implements streaming SAX-path matching: it drives the
// shared path-matching automaton (internal/pmatch) directly over the raw
// bytes of an XML document, so a publication is routed in one pass without
// ever materialising the element tree or its root-to-leaf paths. This is
// the software form of the FPGA filtering architecture's token-stream
// evaluation (PAPERS.md): routing cost becomes proportional to document
// depth × automaton activity instead of document size.
//
// The scanner (scan.go) is a strict mirror of encoding/xml's accept/reject
// behaviour in the configuration xmldoc.Parse uses, so a broker that
// streams a raw body reaches exactly the verdict it would have reached by
// parsing, decomposing, and matching — the differential tests and the
// FuzzStreamEquivalence target pin this equivalence. Wire document bounds
// (depth, element count, name length) are enforced incrementally during the
// scan, so an oversized document is rejected as soon as it exceeds a bound,
// not after a full decode.
//
// Attribute predicates are evaluated lazily: element events drive the
// automaton with interned symbols only, and attribute spans are decoded
// into maps only when an entry with predicates structurally accepts — the
// post-filter then replays XPE.MatchesSymPathAttrs against the live
// root-to-node stack. Documents that trigger no predicate-carrying entry
// never decode an attribute.
package stream

import (
	"fmt"
	"sync"
	"unicode/utf8"

	"repro/internal/pmatch"
	"repro/internal/symtab"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Limits bounds a document during a scan. A zero field disables that bound.
// The checks run in CheckDoc's order — depth, element count, local name
// length — as each start tag is parsed.
type Limits struct {
	// MaxDepth is the maximum number of nesting levels, the root included:
	// a document is rejected when an element has MaxDepth or more
	// ancestors.
	MaxDepth int
	// MaxElems is the maximum total element count.
	MaxElems int
	// MaxName is the maximum byte length of an element's local name.
	MaxName int
}

// The wire document bounds: documents accepted from the network are capped
// at this many levels, elements, and element-name bytes.
const (
	MaxDocDepth = 256
	MaxDocElems = 1 << 16
	MaxDocName  = 256
)

// WireLimits is the Limits form of the wire document bounds.
var WireLimits = Limits{MaxDepth: MaxDocDepth, MaxElems: MaxDocElems, MaxName: MaxDocName}

// matcher binds a scanner to an automaton cursor: scanner callbacks push
// and pop the cursor in document order and maintain the root-to-node
// context (interned symbols, lazily-built attribute maps) the predicate
// post-filter needs. Pooled; one matcher serves one Match call at a time.
type matcher struct {
	sc  scanner
	cur *pmatch.ShardedCursor
	// hits collects the payloads accepted during one scan; Match hands them
	// to the caller's visit only after the scan ends, so the visitor is
	// never stored in this pooled (heap) matcher and a caller's closure over
	// its own stack variables stays on its stack.
	// hits starts on hitBuf, so a fresh pooled matcher does not grow it
	// append by append.
	hits   []any
	hitBuf [64]any

	// Per-open-element stacks, index = depth (root at 0).
	syms  []symtab.Sym        // interned element names, the post-filter path
	maps  []map[string]string // attribute maps, built on first predicate accept
	built []bool              // whether maps[d] has been built

	// Attribute spans per frame, flattened (arena[arenaOff[d]:arenaOff[d+1]]
	// belongs to depth d).
	arena    []attrSpan
	arenaOff []int32

	accept pmatch.AcceptFunc // bound method value, allocated once
}

var matcherPool = sync.Pool{New: func() any {
	m := &matcher{arenaOff: []int32{0}}
	m.hits = m.hitBuf[:0]
	m.accept = m.onAccept
	m.sc.onOpen = m.openElem
	m.sc.onClose = m.closeElem
	return m
}}

// Match scans one raw XML document, validates it exactly as xmldoc.Parse
// would, enforces lim incrementally, and invokes visit for the payload of
// every automaton entry whose expression matches some root-to-node path of
// the document — the same verdict set as decomposing the parsed document
// and matching every annotated path with a.Match, with each payload visited
// at most once. Visits happen after the scan, so a rejected document visits
// nothing. A nil automaton validates only. Safe for concurrent use.
//
// The automaton is the broker's sharded form (pmatch.Single wraps a
// monolithic one): the cursor binds the document root's anchored shard at
// the first start tag and drives it alongside the wild shard.
func Match(data []byte, a *pmatch.ShardedAutomaton, lim Limits, visit func(data any)) error {
	m := matcherPool.Get().(*matcher)
	defer m.release()
	m.sc.reset(data, lim)
	if a != nil {
		m.cur = a.Cursor()
	}
	if err := m.sc.run(); err != nil {
		return err
	}
	for _, d := range m.hits {
		visit(d)
	}
	return nil
}

// Scan validates a raw document (syntax and limits) without matching.
func Scan(data []byte, lim Limits) error {
	return Match(data, nil, lim, nil)
}

// CheckDoc validates a parsed document against lim with the bounds Match
// enforces on raw bodies (pre-order; depth, then count, then name length;
// nil elements rejected) — the parity tests' reference for the scanner.
func CheckDoc(d *xmldoc.Document, lim Limits) error {
	if d == nil || d.Root == nil {
		return fmt.Errorf("stream: document without root element")
	}
	n := 0
	var walk func(e *xmldoc.Elem, depth int) error
	walk = func(e *xmldoc.Elem, depth int) error {
		if lim.MaxDepth > 0 && depth >= lim.MaxDepth {
			return fmt.Errorf("stream: document deeper than %d", lim.MaxDepth)
		}
		if n++; lim.MaxElems > 0 && n > lim.MaxElems {
			return fmt.Errorf("stream: document with more than %d elements", lim.MaxElems)
		}
		if lim.MaxName > 0 && len(e.Name) > lim.MaxName {
			return fmt.Errorf("stream: element name of %d bytes exceeds %d", len(e.Name), lim.MaxName)
		}
		for _, c := range e.Children {
			if c == nil {
				return fmt.Errorf("stream: nil element in document")
			}
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(d.Root, 0)
}

// release returns the matcher to the pool with no references retained.
func (m *matcher) release() {
	if m.cur != nil {
		m.cur.Release()
		m.cur = nil
	}
	clear(m.hits)
	m.hits = m.hits[:0]
	for i := range m.maps {
		m.maps[i] = nil
	}
	m.syms = m.syms[:0]
	m.maps = m.maps[:0]
	m.built = m.built[:0]
	m.arena = m.arena[:0]
	m.arenaOff = append(m.arenaOff[:0], 0)
	m.sc.data = nil
	matcherPool.Put(m)
}

// openElem is the scanner's start-tag callback: intern the name (unknown
// names become symtab.None, which only wildcards match), bank the attribute
// spans, and advance the cursor.
func (m *matcher) openElem(local span, attrs []attrSpan) {
	if m.cur == nil {
		return // validation-only scan
	}
	sym, _ := symtab.LookupBytes(local.of(m.sc.data))
	m.syms = append(m.syms, sym)
	m.maps = append(m.maps, nil)
	m.built = append(m.built, false)
	m.arena = append(m.arena, attrs...)
	m.arenaOff = append(m.arenaOff, int32(len(m.arena)))
	m.cur.Enter(sym, m.accept)
}

// closeElem is the scanner's end-tag callback: pop one frame.
func (m *matcher) closeElem() {
	if m.cur == nil {
		return
	}
	d := len(m.syms) - 1
	m.maps[d] = nil
	m.syms = m.syms[:d]
	m.maps = m.maps[:d]
	m.built = m.built[:d]
	m.arena = m.arena[:m.arenaOff[d]]
	m.arenaOff = m.arenaOff[:d+1]
	m.cur.Leave()
}

// onAccept handles one structural accept event from the cursor. Entries
// without predicates are settled immediately. Predicate-carrying entries
// are post-filtered against the live root-to-node stack: success visits and
// settles; failure keeps the entry eligible at later accept events, which
// makes the union-over-paths verdict identical to matching every decomposed
// path separately.
func (m *matcher) onAccept(x *xpath.XPE, hasPreds bool, data any) bool {
	if !hasPreds {
		m.hits = append(m.hits, data)
		return true
	}
	m.buildMaps()
	if x.MatchesSymPathAttrs(m.syms, m.maps) {
		m.hits = append(m.hits, data)
		return true
	}
	return false
}

// buildMaps materialises the attribute maps of every open frame that does
// not have one yet. Work is bounded by depth × accept events, independent
// of document size.
func (m *matcher) buildMaps() {
	for d := range m.syms {
		if m.built[d] {
			continue
		}
		m.built[d] = true
		spans := m.arena[m.arenaOff[d]:m.arenaOff[d+1]]
		if len(spans) == 0 {
			continue // nil map, like AnnotatedPaths
		}
		mp := make(map[string]string, len(spans))
		for _, a := range spans {
			// Duplicate names: last wins, matching AnnotatedPaths' attrMap.
			mp[string(a.local.of(m.sc.data))] = decodeAttrValue(m.sc.data, a)
		}
		m.maps[d] = mp
	}
}

// decodeAttrValue decodes one attribute value the way encoding/xml's text()
// does for input the scanner already validated: entities expanded, \r and
// \r\n rewritten to \n (with the entity-substitution reset of the pair
// detector replicated).
func decodeAttrValue(data []byte, a attrSpan) string {
	raw := a.value.of(data)
	if !a.esc {
		return string(raw)
	}
	buf := make([]byte, 0, len(raw))
	var prev byte
	for i := 0; i < len(raw); {
		c := raw[i]
		if c == '&' {
			r, next := decodeEntity(raw, i)
			buf = utf8.AppendRune(buf, r)
			i = next
			prev = 0 // entity text resets the \r\n pair detector
			continue
		}
		i++
		switch {
		case c == '\r':
			buf = append(buf, '\n')
		case prev == '\r' && c == '\n':
			// \r\n collapsed to the \n already written.
		default:
			buf = append(buf, c)
		}
		prev = c
	}
	return string(buf)
}

// decodeEntity decodes the validated entity starting at raw[i] == '&',
// returning its rune and the index just past the ';'.
func decodeEntity(raw []byte, i int) (rune, int) {
	j := i + 1
	if raw[j] == '#' {
		j++
		base := uint64(10)
		if raw[j] == 'x' {
			base = 16
			j++
		}
		var n uint64
		for raw[j] != ';' {
			c := raw[j]
			var v uint64
			switch {
			case '0' <= c && c <= '9':
				v = uint64(c - '0')
			case 'a' <= c && c <= 'f':
				v = uint64(c-'a') + 10
			default:
				v = uint64(c-'A') + 10
			}
			n = n*base + v
			j++
		}
		r := rune(n)
		if r >= 0xD800 && r < 0xE000 { // string(rune) surrogate normalisation
			r = 0xFFFD
		}
		return r, j + 1
	}
	for raw[j] != ';' {
		j++
	}
	return entityRune(raw[i+1 : j]), j + 1
}
