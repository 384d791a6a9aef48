package broker

import (
	"time"

	"repro/internal/pmatch"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// routeSnapshot is the immutable routing state the publish data plane reads.
// The control plane mutates the broker's master tables under the exclusive
// lock, applying each change to the persistent matching table at the point
// of change, and before releasing the lock publishes a fresh snapshot
// through an atomic pointer; Publish loads the pointer once and matches
// against a consistent view without acquiring any mutex. Components a
// control change did not touch are carried over from the previous snapshot —
// every component is immutable once published, so sharing is free and a
// swap costs only what the change touched.
type routeSnapshot struct {
	// epoch increments on every swap; 0 is the empty snapshot a new broker
	// starts with. Metrics expose it and traced publications record the
	// epoch they matched under. The epoch moves on EVERY effective control
	// change; change records the last one that changed the matching table
	// (DESIGN.md §5g).
	epoch uint64
	// prtSize and prtStats describe the master PRT at this epoch.
	prtSize  int
	prtStats TreeStats
	// dests describes every destination id in name order (rank order);
	// rank maps an id to its index in dests. Rebuilt only when a destination
	// joins or a client or durable subscription registers (dest.go).
	dests []destInfo
	rank  []int32
	// srtSize is the number of advertisements in the SRT.
	srtSize int
	// durables maps durable virtual-client keys (durKey(name)) to their
	// durable-subscription states, for acks and status. The states are
	// shared with the master map — each carries its own lock/atomics for the
	// publish plane — so the snapshot copy is pointer-shallow.
	durables map[string]*durState
	// auto is the sealed version of the broker's matching table: the PRT
	// nodes that add a destination to their covering parent, and the client
	// subscriptions mergers absorbed, each with a *route payload in
	// destination ids (dest.go). handlePublish runs it once per publication
	// instead of walking every subscription-tree node.
	// Successive versions share every state a change did not touch. Never
	// nil: a new broker starts with the empty automaton.
	auto *pmatch.Automaton
	// change is the last control message that changed auto.
	change tableChange
}

// tableChange records the control message that last changed the matching
// table: the snapshot epoch it published, and what handling it cost — the
// whole handler plus the seal, timed once per message.
type tableChange struct {
	epoch uint64
	cost  time.Duration
}

// snapDirty records which master tables a control message touched, so
// publishSnapshot copies only those. The matching table was edited in place
// and Seal knows whether it changed; filters only says that a client filter
// entry did, so the snapshot swaps even when nothing else moved.
// dests says the destination tables are stale: an id was assigned, or a
// client or durable subscription registered.
type snapDirty struct {
	prt      bool
	srt      bool
	durables bool
	filters  bool
	dests    bool
}

func (d *snapDirty) any() bool {
	return d.prt || d.srt || d.durables || d.filters || d.dests
}

// publishSnapshot swaps in a new immutable snapshot reflecting the master
// tables. It must run with b.mu held exclusively (it reads the mutable
// tables) and is a no-op when the preceding handler changed nothing. start
// is when the handler began; a change to the matching table records the
// time since.
func (b *Broker) publishSnapshot(start time.Time) {
	if !b.dirty.any() {
		return
	}
	old := b.snap.Load()
	next := *old
	next.epoch++
	if b.dirty.prt {
		next.prtSize = b.prt.Size()
		n, e := b.prt.Stats()
		next.prtStats = TreeStats{Nodes: n, Edges: e}
	}
	if b.dirty.srt {
		next.srtSize = len(b.srt)
	}
	if b.dirty.dests || b.dirty.durables {
		next.dests, next.rank = b.destTables()
	}
	if b.dirty.durables {
		durables := make(map[string]*durState, len(b.durables))
		for name, d := range b.durables {
			durables[durKey(name)] = d
		}
		next.durables = durables
	}
	b.sealTable(&next, old, start)
	b.dirty = snapDirty{}
	b.snap.Store(&next)
}

// sealTable publishes the matching table's working version into next and
// records the change. Control messages touching no entry (a pure client
// registration, an advertisement) seal to the previous version and leave
// the record alone.
func (b *Broker) sealTable(next, old *routeSnapshot, start time.Time) {
	next.auto = b.table.Seal()
	if next.auto == old.auto {
		return
	}
	cost := time.Since(start)
	next.change = tableChange{epoch: next.epoch, cost: cost}
	if b.nfaBuildSeconds != nil {
		b.nfaBuildSeconds.Observe(cost.Seconds())
	}
}

// needsEntry reports whether PRT node n adds a destination to its covering
// parent's: it has last hops, and it is top-level, or one of its last hops
// is not the parent's, or is a client that owns n's expression (ownsSub)
// but not the parent's. The matching table holds an entry only where one
// adds a destination (DESIGN.md §5c). A covered node's match implies its
// parent's — cover refuses a predicate-carrying coverer — so a node that
// adds nothing reaches and matches nothing its parent does not, and a
// parent without an entry is itself implied by its parent: the rule chains
// up to a top-level node, which always has one.
func (b *Broker) needsEntry(n *subtree.Node, st *subState) bool {
	if len(st.lastHops) == 0 {
		return false
	}
	p := n.Parent()
	if p == nil {
		return true
	}
	pst := stateOf(p)
	if pst == nil {
		return true
	}
	key, pkey := n.XPE.Key(), p.XPE.Key()
	for _, hop := range st.lastHops {
		if !pst.lastHops.has(hop) || b.ownsSub(hop, key) && !b.ownsSub(hop, pkey) {
			return true
		}
	}
	return false
}

// ownsSub reports whether hop is a client one of whose own subscriptions
// is the expression with the given key. The PRT node holding that
// expression matches it for the client; a separate filter entry remains
// only for a subscription a merger absorbed.
func (b *Broker) ownsSub(hop, key string) bool {
	_, ok := b.clientSubs[hop][key]
	return ok
}

// syncEntry brings a PRT node's matching entry in line with needsEntry:
// added when the node comes to add a destination, removed when it no longer
// does. repoint says the node's route changed (its last hops, or which of
// them it owns), so an entry it keeps is re-pointed. Handlers call it at
// the point of change, under b.mu.
func (b *Broker) syncEntry(n *subtree.Node, st *subState, repoint bool) {
	need, has := b.needsEntry(n, st), st.entry != (pmatch.Handle{})
	switch {
	case !need && has:
		b.table.Remove(st.entry)
		st.entry = pmatch.Handle{}
	case need && !has:
		st.entry = b.table.Add(n.XPE, b.hopRoute(n, st))
	case need && repoint:
		b.table.Set(st.entry, b.hopRoute(n, st))
	}
}

// routeChanged re-syncs a node whose route changed, and its direct
// children, whose need for an entry is judged against it.
func (b *Broker) routeChanged(n *subtree.Node, st *subState) {
	b.syncEntry(n, st, true)
	b.recheck(n.Children())
}

// recheck re-syncs nodes whose covering parent changed, or whose parent's
// route did; their own routes are unchanged.
func (b *Broker) recheck(nodes []*subtree.Node) {
	for _, c := range nodes {
		if cst := stateOf(c); cst != nil {
			b.syncEntry(c, cst, false)
		}
	}
}

// clientFilter is one of a client's original subscriptions and, while a
// merger has absorbed it, its entry in the matching table.
type clientFilter struct {
	xpe   *xpath.XPE
	entry pmatch.Handle
}

// addFilter records a client's subscription and reports whether it is new:
// the client held none with the same key. It enters no table entry — the
// PRT node the subscription lands on matches it for the client.
func (b *Broker) addFilter(client string, x *xpath.XPE) bool {
	subs := b.clientSubs[client]
	if subs == nil {
		subs = make(map[string]clientFilter)
		b.clientSubs[client] = subs
	}
	if _, dup := subs[x.Key()]; dup {
		return false
	}
	subs[x.Key()] = clientFilter{xpe: x}
	return true
}

// removeFilter withdraws a client's subscription and its table entry, if
// it has one.
func (b *Broker) removeFilter(client string, x *xpath.XPE) {
	if f, ok := b.clientSubs[client][x.Key()]; ok {
		delete(b.clientSubs[client], x.Key())
		if f.entry != (pmatch.Handle{}) {
			b.table.Remove(f.entry)
			b.dirty.filters = true
		}
	}
}

// dropFilterEntry removes the filter entry of a client subscription that a
// PRT node holds again for the client (the client re-subscribed it after a
// merger absorbed it): the node matches it now.
func (b *Broker) dropFilterEntry(client string, x *xpath.XPE) {
	subs := b.clientSubs[client]
	if f, ok := subs[x.Key()]; ok && f.entry != (pmatch.Handle{}) {
		b.table.Remove(f.entry)
		f.entry = pmatch.Handle{}
		subs[x.Key()] = f
		b.dirty.filters = true
	}
}

// absorbed reports whether a client's subscription x is held by no PRT node
// reaching the client, so only a filter entry can match it for the client:
// a merger absorbed it.
func (b *Broker) absorbed(client string, x *xpath.XPE) bool {
	n := b.prt.Lookup(x)
	if n == nil {
		return true
	}
	st := stateOf(n)
	return st == nil || !st.lastHops.has(client)
}

// reseedTable refills the matching table from the master PRT and the
// client subscriptions mergers absorbed. A merge pass rewrites arbitrary
// sibling groups and is O(table) already, so it re-seeds rather than
// tracking each merged source.
func (b *Broker) reseedTable() {
	b.table.Reset()
	b.prt.Walk(func(n *subtree.Node) {
		if st := stateOf(n); st != nil {
			st.entry = pmatch.Handle{}
			b.syncEntry(n, st, false)
		}
	})
	for id, subs := range b.clientSubs {
		for k, f := range subs {
			f.entry = pmatch.Handle{}
			if b.absorbed(id, f.xpe) {
				f.entry = b.table.Add(f.xpe, &route{client: b.destID(id)})
			}
			subs[k] = f
		}
	}
}

// SnapshotEpoch returns the current routing-snapshot epoch without taking
// any lock. The epoch increments exactly when a control-plane change swaps
// the publish view; a run of publications observing one epoch matched one
// consistent routing table.
func (b *Broker) SnapshotEpoch() uint64 {
	return b.snap.Load().epoch
}

// NFAStats measures the current snapshot's shared matching automaton.
// Lock-free, like every snapshot reader.
func (b *Broker) NFAStats() pmatch.Stats {
	return b.snap.Load().auto.Stats()
}

// TableStatus describes the current snapshot's matching table for /statusz
// and cmd/xtop.
type TableStatus struct {
	// Entries and States size the automaton.
	Entries int `json:"entries"`
	States  int `json:"states"`
	// Epoch is the last snapshot epoch that changed the table. It lags the
	// broker's snapshot epoch while control messages leave the table alone
	// (advertisements, client registrations).
	Epoch uint64 `json:"epoch"`
	// LastBuildSeconds is how long the control message behind that change
	// took to handle, sealing included.
	LastBuildSeconds float64 `json:"last_build_seconds"`
}

// TableStatus reports the current snapshot's matching table. Lock-free,
// like every snapshot reader.
func (b *Broker) TableStatus() TableStatus {
	snap := b.snap.Load()
	return TableStatus{
		Entries:          snap.auto.NumEntries(),
		States:           snap.auto.NumStates(),
		Epoch:            snap.change.epoch,
		LastBuildSeconds: snap.change.cost.Seconds(),
	}
}
