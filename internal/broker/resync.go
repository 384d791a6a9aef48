package broker

import (
	"slices"
	"strings"

	"repro/internal/advert"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// ResyncState is the full control state one broker owes a neighbour: every
// advertisement it would have flooded there and every subscription it has
// forwarded there. It is the payload of a MsgResync message, emitted by
// ResyncFor when a link heals or a crashed neighbour restarts.
//
// The state is a *complete* claim, not an incremental one: the receiver
// treats entries attributed to the sender that are absent from the message
// as withdrawn. That makes resync an anti-entropy exchange — applying it is
// idempotent, and a pair of resyncs (one per direction) converges a healed
// link to the exact tables of a fault-free run even when control messages
// were lost in both directions during the outage.
type ResyncState struct {
	// Advs lists every (ID, advertisement) pair the sender's SRT holds with
	// a last hop other than the receiver — the set the sender's floods would
	// have delivered, sorted by ID. Covered-duplicate IDs are listed with
	// the covering entry's pattern so the receiver's own dedup state stays
	// reachable.
	Advs []ResyncAdv
	// Subs lists every PRT expression the sender has forwarded to the
	// receiver (including forwards that were lost in flight: the sender
	// marks forwarding before the network outcome is known).
	Subs []*xpath.XPE
}

// ResyncAdv is one advertisement entry of a resync payload.
type ResyncAdv struct {
	ID  string
	Adv *advert.Advertisement
}

// ResyncFor emits the broker's full owed control state to a neighbouring
// broker as one MsgResync message. Transports call it after a broken link to
// the peer has been re-established (and the discrete-event simulator calls
// it when a partition heals or a crashed broker restarts); the peer applies
// the state as a diff, so calling it spuriously is harmless.
//
// The message is built and emitted under the exclusive control-plane lock:
// no control change can interleave between the snapshot of the tables and
// the emission, so the claim is internally consistent.
func (b *Broker) ResyncFor(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.clients[peer] {
		return // clients resync themselves by replaying their subscriptions
	}
	st := &ResyncState{}
	for id, e := range b.srtByID {
		if e.lastHop != peer {
			st.Advs = append(st.Advs, ResyncAdv{ID: id, Adv: e.adv})
		}
	}
	slices.SortFunc(st.Advs, func(x, y ResyncAdv) int { return strings.Compare(x.ID, y.ID) })
	b.prt.Walk(func(n *subtree.Node) {
		if s := stateOf(n); s != nil && s.forwardedTo.has(peer) {
			st.Subs = append(st.Subs, n.XPE)
		}
	})
	b.emit(peer, &Message{Type: MsgResync, Resync: st})
}

// handleResync applies a neighbour's resync claim as a diff against the
// local tables. Runs under the exclusive lock (see HandleMessage); the
// snapshot swap after it makes the whole exchange atomic for the publish
// plane. Application order matters: advertisements first (subscription
// forwarding consults the SRT), then garbage collection of entries the
// sender no longer claims, then subscriptions, then subscription GC.
func (b *Broker) handleResync(m *Message, from string) {
	if m.Resync == nil || b.clients[from] {
		return // resync is a broker-to-broker exchange
	}
	// Advertisements the sender claims but we lack: apply through the normal
	// handler so they flood onward and pull existing subscriptions.
	claimed := make(map[string]bool, len(m.Resync.Advs))
	for _, ra := range m.Resync.Advs {
		claimed[ra.ID] = true
		if _, known := b.srtByID[ra.ID]; !known {
			b.handleAdvertise(&Message{Type: MsgAdvertise, AdvID: ra.ID, Adv: ra.Adv}, from)
		}
	}
	// Advertisements we attribute to the sender that it no longer claims
	// (unadvertised while the link was down): withdraw them. An entry
	// survives when any of its alias IDs — covering dedup maps several IDs
	// to one entry — is still claimed.
	aliases := make(map[*advEntry][]string)
	for id, e := range b.srtByID {
		aliases[e] = append(aliases[e], id)
	}
	for _, e := range append([]*advEntry(nil), b.srt...) {
		if e.lastHop != from {
			continue
		}
		alive := false
		for _, id := range aliases[e] {
			if claimed[id] {
				alive = true
				break
			}
		}
		if !alive {
			for _, id := range aliases[e] {
				b.handleUnadvertise(&Message{Type: MsgUnadvertise, AdvID: id}, from)
			}
		}
	}
	// Subscriptions the sender claims: the normal handler records the new
	// direction and re-forwards where reverse-path delivery needs it; pure
	// repeats are no-ops.
	wanted := make(map[string]bool, len(m.Resync.Subs))
	for _, x := range m.Resync.Subs {
		wanted[x.Key()] = true
		b.handleSubscribe(&Message{Type: MsgSubscribe, XPE: x}, from)
	}
	// Subscriptions we attribute to the sender that it no longer claims
	// (unsubscribed while the link was down): withdraw the sender's
	// direction. Collect first — removal mutates the tree under the walk.
	var stale []*xpath.XPE
	b.prt.Walk(func(n *subtree.Node) {
		if s := stateOf(n); s != nil && s.lastHops.has(from) && !wanted[n.XPE.Key()] {
			stale = append(stale, n.XPE)
		}
	})
	for _, x := range stale {
		b.handleUnsubscribe(&Message{Type: MsgUnsubscribe, XPE: x}, from)
	}
}
