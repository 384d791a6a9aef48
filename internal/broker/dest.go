package broker

// Destination ids: every name a publication can be routed to — a
// neighbour, a client, a durable virtual client, or any other peer a
// subscription arrived from — gets a small integer id the first time it
// enters the matching table. Ids are stable: they are never renumbered or
// recycled, so a payload written into the persistent table stays valid in
// every later snapshot and a new destination costs no table edit. The id
// space only grows, like the client set (clients are never unregistered).
//
// The publish path routes in rank space: each snapshot orders its
// destinations by name, and a match run sets the rank of every destination
// it reaches in a bitset. Walking the set bits in ascending order then
// visits destinations in name order without a map, a slice, or a sort.

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/subtree"
)

// route is the payload of every matching-table entry, in destination ids.
// A PRT node reaches its last hops; those whose own subscription the node
// is — a client that subscribed exactly this expression — come first and
// are matched too, so the edge filter passes them without a second entry.
// A client filter entry (a subscription a merger absorbed) matches its
// client and reaches nothing.
type route struct {
	hops   []int32 // PRT node: its last hops, own ones first
	own    int32   // PRT node: hops[:own] are also matched
	client int32   // client filter entry: the client; -1 on a PRT node
}

// destInfo is what the publish filter pass needs to know about one
// destination.
type destInfo struct {
	name   string
	client bool      // edge filtering applies
	dur    *durState // non-nil for a durable virtual client
}

// destID returns name's destination id, assigning the next one on first
// use. Runs under b.mu.
func (b *Broker) destID(name string) int32 {
	if id, ok := b.destIDs[name]; ok {
		return id
	}
	id := int32(len(b.destNames))
	b.destIDs[name] = id
	b.destNames = append(b.destNames, name)
	b.dirty.dests = true
	return id
}

// hopRoute is the payload of PRT node n with last hops st.lastHops.
func (b *Broker) hopRoute(n *subtree.Node, st *subState) *route {
	r := &route{hops: make([]int32, 0, len(st.lastHops)), client: -1}
	key := n.XPE.Key()
	for _, hop := range st.lastHops {
		if b.ownsSub(hop, key) {
			r.hops = append(r.hops, b.destID(hop))
		}
	}
	r.own = int32(len(r.hops))
	for _, hop := range st.lastHops {
		if !b.ownsSub(hop, key) {
			r.hops = append(r.hops, b.destID(hop))
		}
	}
	return r
}

// destTables builds a snapshot's destination tables: dests in name order
// and, by id, each destination's rank in it. O(destinations · log), paid
// only when a destination joins or a client or durable registers.
func (b *Broker) destTables() (dests []destInfo, rank []int32) {
	order := make([]int32, len(b.destNames))
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(b.destNames[x], b.destNames[y]) })
	dests = make([]destInfo, len(order))
	rank = make([]int32, len(order))
	for r, id := range order {
		name := b.destNames[id]
		d := destInfo{name: name, client: b.clients[name]}
		if dur, ok := strings.CutPrefix(name, durPrefix); ok {
			d.dur = b.durables[dur]
		}
		dests[r] = d
		rank[id] = int32(r)
	}
	return dests, rank
}

// destSet is a set of destination ranks.
type destSet []uint64

// setWords is the length of a destSet holding n destinations.
func setWords(n int) int { return (n + 63) >> 6 }

func (s destSet) add(r int)      { s[r>>6] |= 1 << (r & 63) }
func (s destSet) del(r int)      { s[r>>6] &^= 1 << (r & 63) }
func (s destSet) has(r int) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// next returns the lowest member at or above r, or -1: iterate with
// for r := s.next(0); r >= 0; r = s.next(r + 1).
func (s destSet) next(r int) int {
	for w := r >> 6; w < len(s); w++ {
		word := s[w]
		if w == r>>6 {
			word &= ^uint64(0) << (r & 63)
		}
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// destScratch holds the two sets of a publication on a broker with more
// than 64 destinations; fewer fit in words on the publish handler's stack.
type destScratch struct {
	hops, matched destSet
}

var destScratchPool = sync.Pool{New: func() any { return new(destScratch) }}

// getDestScratch returns pooled, cleared sets of the given word count.
func getDestScratch(words int) *destScratch {
	s := destScratchPool.Get().(*destScratch)
	if cap(s.hops) < words {
		s.hops, s.matched = make(destSet, words), make(destSet, words)
	} else {
		s.hops, s.matched = s.hops[:words], s.matched[:words]
		clear(s.hops)
		clear(s.matched)
	}
	return s
}
