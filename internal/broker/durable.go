package broker

// Durable named subscriptions (DESIGN.md §5i). A durable subscription is a
// long-lived, named materialised view over the publication stream — the
// ViP2P model — owned by the edge broker it was registered on. The broker
// assigns every matched publication a monotonically increasing per-name
// sequence number, appends it to the write-ahead publication log
// (Config.Durable), and replays the gap above the acknowledged cursor when
// the subscriber reattaches. The at-least-once guarantee covers the
// subscriber-edge leg: once a publication reaches the edge broker and is
// appended, it survives client detach and broker crash. Publications lost
// in transit upstream are the overlay's resync/redundant-path story, not
// this one's.
//
// Mechanically, a durable subscription is a virtual client: its
// expressions register under the reserved peer key durKey(name) in the
// client set, the client filters, and the PRT, so matching and edge
// filtering need no new code — the publish filter pass finds the durable
// hop exactly as it finds a real client, and redirects delivery through
// durableDeliver.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xpath"
)

// DurableStore is the persistence contract behind durable subscriptions —
// a per-broker segmented write-ahead publication log with acknowledged
// cursors (package publog implements it; the dependency points that way so
// the log can encode broker messages).
//
// Append must persist the record at-least-once semantics allow
// group-committed durability (a crash may lose the unsynced tail; the
// subscriber's unacknowledged window is replayed from what survived).
// Replay must hand back records for name with from <= seq <= to in
// sequence order; the messages it passes are fresh and may be retained.
// Recover reports the state rebuilt from disk after a restart.
type DurableStore interface {
	Append(name string, seq uint64, m *Message) error
	Ack(name string, seq uint64) error
	SaveSub(name string, xpes []string) error
	Replay(name string, from, to uint64, fn func(seq uint64, m *Message) error) error
	Recover() []DurableState
}

// DurableState is one durable subscription's recovered state.
type DurableState struct {
	Name    string
	LastSeq uint64
	Acked   uint64
	Subs    []string
}

// durPrefix namespaces durable virtual-client keys away from real peer
// IDs ('~' never appears in broker or client identifiers).
const durPrefix = "~dur:"

func durKey(name string) string { return durPrefix + name }

// durState is one durable subscription's live state. The control plane
// creates it under b.mu; the publish plane reaches it through the routing
// snapshot and synchronises on the state's own lock, so sequence
// assignment never touches the broker lock.
type durState struct {
	name string

	// mu serialises sequence assignment, the log append, and the peer
	// read, making log order identical to sequence order per name — and
	// making attach-time replay exact: reattach sets peer and reads the
	// last assigned sequence under this lock, so every later sequence
	// live-delivers and every earlier one is covered by the replay range.
	mu   sync.Mutex
	seq  uint64 // last assigned sequence, under mu
	peer string // attached client peer ID ("" while detached), under mu

	// acked is the acknowledged cursor, advanced lock-free by MsgAck.
	acked atomic.Uint64

	// xpes holds the subscription's expressions in canonical string form;
	// guarded by b.mu (control plane only).
	xpes map[string]bool
}

// handleSubscribeDurable registers (or reattaches) a durable named
// subscription. Runs under b.mu like every control handler.
func (b *Broker) handleSubscribeDurable(m *Message, from string) {
	if b.durable == nil || m.Durable == "" || m.XPE == nil {
		return
	}
	name := m.Durable
	key := durKey(name)
	d := b.durables[name]
	if d == nil {
		d = &durState{name: name, xpes: make(map[string]bool)}
		b.durables[name] = d
		b.dirty.durables = true
	}
	// Register the virtual client so matching, edge filtering, and the
	// snapshot's destination tables all see the durable subscription as an
	// ordinary local client.
	if !b.clients[key] {
		b.clients[key] = true
		b.dirty.dests = true
	}
	if expr := m.XPE.String(); !d.xpes[expr] {
		d.xpes[expr] = true
		// Delegate to the plain subscribe handler with the virtual client
		// as the last hop: PRT insertion, upstream forwarding, covering,
		// and merging all apply unchanged.
		b.handleSubscribe(&Message{Type: MsgSubscribe, XPE: m.XPE}, key)
		b.durable.SaveSub(name, sortedKeys(d.xpes))
	}
	// A directly connected client attaching (as opposed to a forwarded or
	// recovered registration) gets the unacknowledged gap replayed.
	if b.clients[from] {
		b.replayDurable(d, from)
	}
}

// replayDurable attaches peer to the durable subscription and replays the
// gap between its acknowledged cursor and the last assigned sequence.
// Setting the peer and reading the last sequence under d.mu leaves no gap
// with live delivery: a publication sequenced after the read observes the
// new peer and delivers live; one sequenced before it falls inside the
// replay range. (A delivery in flight to the previous attachment of the
// same client may be re-sent by the replay — at-least-once permits
// duplicates across reconnect boundaries.)
func (b *Broker) replayDurable(d *durState, peer string) {
	d.mu.Lock()
	d.peer = peer
	last := d.seq
	d.mu.Unlock()
	acked := d.acked.Load()
	from := acked + 1
	b.emit(peer, &Message{Type: MsgReplayBegin, Durable: d.name, Seq: from})
	if last > acked {
		b.durable.Replay(d.name, from, last, func(seq uint64, m *Message) error {
			cp := *m
			cp.Type = MsgPublish
			cp.Durable = d.name
			cp.Seq = seq
			b.emit(peer, &cp)
			return nil
		})
	}
	b.emit(peer, &Message{Type: MsgReplayEnd, Durable: d.name, Seq: last})
}

// durableDeliver sequences one matched publication for a durable
// subscription, appends it to the log, and forwards it to the attached
// client (if any) stamped with its name and sequence. Called from the
// lock-free publish path after the edge filter passed; d.mu is the only
// lock taken, and the log append behind it is a buffered write — the
// fsync happens in the store's group commit.
func (b *Broker) durableDeliver(d *durState, m *Message) {
	d.mu.Lock()
	d.seq++
	seq := d.seq
	if b.durable != nil {
		b.durable.Append(d.name, seq, m)
	}
	peer := d.peer
	d.mu.Unlock()
	if peer != "" {
		cp := *m
		cp.Durable = d.name
		cp.Seq = seq
		b.emit(peer, &cp)
	}
}

// handleAck advances a durable subscription's acknowledged cursor. It
// rides the data plane: an atomic max on the snapshot's state plus the
// store's cursor persistence, no broker lock and no snapshot swap.
func (b *Broker) handleAck(m *Message) {
	if b.durable == nil || m.Durable == "" {
		return
	}
	d := b.snap.Load().durables[durKey(m.Durable)]
	if d == nil {
		return
	}
	for {
		cur := d.acked.Load()
		if m.Seq <= cur {
			return
		}
		if d.acked.CompareAndSwap(cur, m.Seq) {
			break
		}
	}
	b.durable.Ack(m.Durable, m.Seq)
}

// RecoverDurable rebuilds durable subscriptions from the store after a
// restart: sequence counters resume above the highest logged sequence,
// acknowledged cursors are restored, and every persisted expression
// re-registers through the plain subscribe path (PRT, upstream
// forwarding, covering). It must run after AddNeighbor registration — the
// re-registered subscriptions forward upstream like fresh ones — and
// before traffic. The transport's server constructor and the simulator's
// restart path both call it at that point.
func (b *Broker) RecoverDurable() {
	if b.durable == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	start := time.Now()
	for _, st := range b.durable.Recover() {
		d := b.durables[st.Name]
		if d == nil {
			d = &durState{name: st.Name, xpes: make(map[string]bool)}
			b.durables[st.Name] = d
			b.dirty.durables = true
		}
		d.mu.Lock()
		if st.LastSeq > d.seq {
			d.seq = st.LastSeq
		}
		d.mu.Unlock()
		if st.Acked > d.acked.Load() {
			d.acked.Store(st.Acked)
		}
		key := durKey(st.Name)
		if !b.clients[key] {
			b.clients[key] = true
			b.dirty.dests = true
		}
		for _, expr := range st.Subs {
			if d.xpes[expr] {
				continue
			}
			x, err := xpath.Parse(expr)
			if err != nil {
				continue
			}
			d.xpes[expr] = true
			b.handleSubscribe(&Message{Type: MsgSubscribe, XPE: x}, key)
		}
	}
	b.publishSnapshot(start)
}

// DurableStatus is one durable subscription's live cursor state for
// /statusz and tests.
type DurableStatus struct {
	Name  string `json:"name"`
	Seq   uint64 `json:"seq"`
	Acked uint64 `json:"acked"`
	Peer  string `json:"peer,omitempty"`
}

// Durables snapshots the broker's durable subscriptions, sorted by name.
func (b *Broker) Durables() []DurableStatus {
	snap := b.snap.Load()
	out := make([]DurableStatus, 0, len(snap.durables))
	for _, d := range snap.durables {
		d.mu.Lock()
		st := DurableStatus{Name: d.name, Seq: d.seq, Peer: d.peer}
		d.mu.Unlock()
		st.Acked = d.acked.Load()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
