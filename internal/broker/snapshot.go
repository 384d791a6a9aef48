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
	// change; slots records per shard the last epoch that changed it
	// (DESIGN.md §5g).
	epoch uint64
	// prtSize and prtStats describe the master PRT at this epoch.
	prtSize  int
	prtStats TreeStats
	// clients is the client-peer set.
	clients map[string]bool
	// srt is the advertisement table view (entries are immutable after
	// insertion; the slice is copied on change).
	srt []*advEntry
	// durables maps durable virtual-client keys (durKey(name)) to their
	// durable-subscription states. The states are shared with the master
	// map — each carries its own lock/atomics for the publish plane — so
	// the snapshot copy is pointer-shallow. Empty (never nil) without
	// durable subscriptions, keeping the publish filter pass to one map
	// length check.
	durables map[string]*durState
	// auto is the sealed version of the broker's matching table: PRT nodes
	// (payload: sorted last-hop slices) and per-client filter expressions
	// (payload: clientMatch keys), partitioned by root symbol
	// (pmatch.ShardIndex). handlePublish runs the shard(s) a publication can
	// hit instead of walking every subscription-tree node. Successive
	// versions share every state and every slot a change did not touch.
	// Never nil: a new broker starts with the empty automaton.
	auto *pmatch.ShardedAutomaton
	// slots parallels auto's slots: the last change to each.
	slots []slotChange
}

// slotChange records the control message that last changed one automaton
// slot: the snapshot epoch it published, and what handling it cost — the
// whole handler plus the seal, timed once per message.
type slotChange struct {
	epoch uint64
	cost  time.Duration
}

// clientMatch is the automaton payload type of a per-client filter-tree
// entry: the client's peer ID. Distinguished from PRT payloads ([]string
// last-hop slices) by type in handlePublish's single type switch.
type clientMatch string

// snapDirty records which master tables a control message touched, so
// publishSnapshot copies only those. The matching table was edited in place
// and Seal knows which slots changed; filters only says that a client
// filter entry did, so the snapshot swaps even when nothing else moved.
type snapDirty struct {
	prt      bool
	srt      bool
	clients  bool
	durables bool
	filters  bool
}

func (d *snapDirty) any() bool {
	return d.prt || d.srt || d.clients || d.durables || d.filters
}

// publishSnapshot swaps in a new immutable snapshot reflecting the master
// tables. It must run with b.mu held exclusively (it reads the mutable
// tables) and is a no-op when the preceding handler changed nothing. start
// is when the handler began; the slots the change touched record the time
// since.
func (b *Broker) publishSnapshot(start time.Time) {
	if !b.dirty.any() {
		return
	}
	old := b.snap.Load()
	next := *old
	next.epoch++
	if b.dirty.prt {
		next.prtSize = b.prt.Size()
		n, e, s := b.prt.Stats()
		next.prtStats = TreeStats{Nodes: n, Edges: e, SuperEdges: s}
	}
	if b.dirty.srt {
		next.srt = append([]*advEntry(nil), b.srt...)
	}
	if b.dirty.clients {
		clients := make(map[string]bool, len(b.clients))
		for id := range b.clients {
			clients[id] = true
		}
		next.clients = clients
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
// records the change on the slots it touched. Control messages touching no
// entry (a pure client registration, an advertisement) seal to the previous
// version and leave every slot's record alone.
func (b *Broker) sealTable(next, old *routeSnapshot, start time.Time) {
	next.auto = b.table.Seal()
	if next.auto == old.auto {
		return
	}
	cost := time.Since(start)
	next.slots = append([]slotChange(nil), old.slots...)
	for i := range next.slots {
		if next.auto.Slot(i) != old.auto.Slot(i) {
			next.slots[i] = slotChange{epoch: next.epoch, cost: cost}
		}
	}
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
		st.entry = b.table.Add(n.XPE, sortedKeys(st.lastHops))
	default:
		b.table.Set(st.entry, sortedKeys(st.lastHops))
	}
}

// addFilterEntry enters a new client filter-tree node into the matching
// table; its handle lives in the node's Data.
func (b *Broker) addFilterEntry(client string, n *subtree.Node) {
	n.Data = b.table.Add(n.XPE, clientMatch(client))
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

// NFAStats measures the current snapshot's shared matching automaton,
// summed across shards. Lock-free, like every snapshot reader.
func (b *Broker) NFAStats() pmatch.Stats {
	return b.snap.Load().auto.Stats()
}

// ShardStatus describes one slot of the current snapshot's sharded
// automaton for /statusz and cmd/xtop.
type ShardStatus struct {
	// Shard is the slot's name: "0".."N-1" for anchored shards, "wild" for
	// the slot every publication consults.
	Shard string `json:"shard"`
	// Entries and States size the slot's automaton.
	Entries int `json:"entries"`
	States  int `json:"states"`
	// Epoch is the last snapshot epoch that changed this slot (it lags the
	// broker's snapshot epoch while changes land in other slots).
	Epoch uint64 `json:"epoch"`
	// LastBuildSeconds is how long the control message behind that change
	// took to handle, sealing included.
	LastBuildSeconds float64 `json:"last_build_seconds"`
}

// ShardStatus reports the per-shard state of the current snapshot's
// matching automaton, in slot order. Lock-free, like every snapshot reader.
func (b *Broker) ShardStatus() []ShardStatus {
	snap := b.snap.Load()
	out := make([]ShardStatus, snap.auto.SlotCount())
	for i := range out {
		out[i] = snap.slotStatus(i)
		out[i].Shard = pmatch.SlotName(i, snap.auto.N())
	}
	return out
}

// shardSlotStatus reads one slot's status from the current snapshot — the
// per-shard metrics gauges poll it.
func (b *Broker) shardSlotStatus(slot int) ShardStatus {
	return b.snap.Load().slotStatus(slot)
}

func (s *routeSnapshot) slotStatus(slot int) ShardStatus {
	a := s.auto.Slot(slot)
	return ShardStatus{
		Entries:          a.NumEntries(),
		States:           a.NumStates(),
		Epoch:            s.slots[slot].epoch,
		LastBuildSeconds: s.slots[slot].cost.Seconds(),
	}
}
