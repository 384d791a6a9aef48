package broker

import (
	"time"

	"repro/internal/pmatch"
	"repro/internal/subtree"
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
	// auto is the sealed version of the broker's matching table: PRT nodes
	// and per-client filter expressions, each with a *route payload in
	// destination ids (last hops, or the client). handlePublish runs it once
	// per publication instead of walking every subscription-tree node.
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

// syncEntry brings a PRT node's matching entry in line with its last hops:
// added with the first direction, re-pointed when the set changes, removed
// with the last. Handlers call it at the point of change, under b.mu.
func (b *Broker) syncEntry(n *subtree.Node, st *subState) {
	switch {
	case len(st.lastHops) == 0:
		b.table.Remove(st.entry)
		st.entry = pmatch.Handle{}
	case st.entry == pmatch.Handle{}:
		st.entry = b.table.Add(n.XPE, b.hopRoute(st.lastHops))
	default:
		b.table.Set(st.entry, b.hopRoute(st.lastHops))
	}
}

// addFilterEntry enters a new client filter-tree node into the matching
// table; its handle lives in the node's Data.
func (b *Broker) addFilterEntry(client string, n *subtree.Node) {
	n.Data = b.table.Add(n.XPE, &route{client: b.destID(client)})
	b.dirty.filters = true
}

// removeFilterEntry withdraws a removed client filter-tree node.
func (b *Broker) removeFilterEntry(n *subtree.Node) {
	b.table.Remove(n.Data.(pmatch.Handle))
	b.dirty.filters = true
}

// reseedTable refills the matching table from the master PRT and client
// trees. A merge pass rewrites arbitrary sibling groups and is O(table)
// already, so it re-seeds rather than tracking each merged source.
func (b *Broker) reseedTable() {
	b.table.Reset()
	b.prt.Walk(func(n *subtree.Node) {
		if st := stateOf(n); st != nil {
			st.entry = pmatch.Handle{}
			b.syncEntry(n, st)
		}
	})
	for id, t := range b.clientSubs {
		t.Walk(func(n *subtree.Node) { b.addFilterEntry(id, n) })
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
