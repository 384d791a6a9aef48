package broker

// Control plane: advertisement and subscription handlers, forwarding rules,
// and the periodic merge pass. Every function here runs with b.mu held
// exclusively (HandleMessage takes it before dispatching), mutates the
// master tables, and applies each change to the matching table where it
// happens; publishSnapshot seals the result into the immutable
// routeSnapshot before the lock drops.

import (
	"slices"
	"sort"

	"repro/internal/advert"
	"repro/internal/cover"
	"repro/internal/merge"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// --- advertisements ---

func (b *Broker) handleAdvertise(m *Message, from string) {
	if _, dup := b.srtByID[m.AdvID]; dup {
		return // flooding duplicate
	}
	e := &advEntry{id: m.AdvID, adv: m.Adv, lastHop: from}
	// Advertisement covering: an advertisement covered by an existing one
	// with the same last hop is redundant — subscriptions overlapping it
	// are already routed that way. (Different last hops must both stay:
	// they lead to different producers.) The first coverer in SRT order
	// takes the ID.
	if key, ok := b.coverKey(e); ok {
		for _, old := range b.flatSRT[key] {
			if cover.CoversAdvertisement(old.adv.Tokens(), m.Adv.Tokens()) {
				b.srtByID[m.AdvID] = old // remember the ID for dedup
				return
			}
		}
		b.flatSRT[key] = append(b.flatSRT[key], e)
	}
	ix := b.advIndex[from]
	if ix == nil {
		ix = &advert.Index{}
		b.advIndex[from] = ix
	}
	e.slot = ix.Add(m.Adv)
	b.srt = append(b.srt, e)
	b.srtByID[m.AdvID] = e
	b.dirty.srt = true

	// Flood to all other peers that are brokers.
	for _, nb := range b.neighbors {
		if nb != from {
			b.emit(nb, m)
		}
	}
	// Forward existing subscriptions toward the new advertisement.
	if b.cfg.UseAdvertisements && from != "" {
		for _, n := range b.prt.TopLevel() {
			st := stateOf(n)
			if st == nil || st.forwardedTo.has(from) {
				continue
			}
			if m.Adv.Overlaps(n.XPE) {
				st.forwardedTo.add(from)
				b.emit(from, &Message{Type: MsgSubscribe, XPE: n.XPE})
			}
		}
	}
}

func (b *Broker) handleUnadvertise(m *Message, from string) {
	e := b.srtByID[m.AdvID]
	if e == nil {
		return
	}
	delete(b.srtByID, m.AdvID)
	for i, cur := range b.srt {
		if cur == e {
			b.srt = append(b.srt[:i], b.srt[i+1:]...)
			b.dirty.srt = true
			ix := b.advIndex[e.lastHop]
			ix.Remove(e.slot)
			if ix.Len() == 0 {
				delete(b.advIndex, e.lastHop)
			}
			b.unbucket(e)
			break
		}
	}
	for _, nb := range b.neighbors {
		if nb != from {
			b.emit(nb, m)
		}
	}
}

// unbucket takes e out of its covering bucket, if it has one, keeping the
// rest in SRT order.
func (b *Broker) unbucket(e *advEntry) {
	key, ok := b.coverKey(e)
	if !ok {
		return
	}
	list := b.flatSRT[key]
	if i := slices.Index(list, e); i >= 0 {
		list = slices.Delete(list, i, i+1)
	}
	if len(list) == 0 {
		delete(b.flatSRT, key)
	} else {
		b.flatSRT[key] = list
	}
}

// --- subscriptions ---

func (b *Broker) handleSubscribe(m *Message, from string) {
	// Remember a client's original subscription for delivery filtering:
	// the PRT node it lands on matches it for the client, and a merge pass
	// gives it a filter entry of its own once a merger absorbs it.
	owned := b.clients[from] && b.addFilter(from, m.XPE)

	var res subtree.InsertResult
	if b.cfg.UseCovering {
		res = b.prt.Insert(m.XPE)
	} else {
		res = b.prt.FlatInsert(m.XPE)
	}
	st := stateOf(res.Node)
	if st == nil {
		st = &subState{}
		res.Node.Data = st
	}
	newDirection := st.lastHops.add(from)
	if res.Duplicate && !newDirection && !owned {
		return // a pure repeat from the same peer changes nothing
	}
	b.dirty.prt = true
	// The node's route changed, and on insert its adopted children — the
	// subscriptions it newly covers — have a new parent to be judged
	// against.
	b.routeChanged(res.Node, st)
	b.dropFilterEntry(from, m.XPE)
	if !newDirection {
		return // the client now owns an expression that reached it already
	}
	// A known expression arriving from a NEW direction must still
	// propagate: reverse-path delivery needs every broker between the
	// publisher and the new subscriber to record the new interest
	// direction, so the subscription is re-forwarded to the hops it has
	// not reached yet.
	b.forwardSubscription(res.Node, st, from)

	// Withdraw the subscriptions this one covers from the hops both were
	// forwarded to: downstream tables keep routing through the broader
	// subscription. The covered set is filtered in place, in hop order.
	if b.cfg.UseCovering {
		for _, covered := range res.NewlyCovered {
			cst := stateOf(covered)
			if cst == nil {
				continue
			}
			cst.forwardedTo = slices.DeleteFunc(cst.forwardedTo, func(hop string) bool {
				if !st.forwardedTo.has(hop) {
					return false
				}
				b.emit(hop, &Message{Type: MsgUnsubscribe, XPE: covered.XPE})
				return true
			})
		}
	}

	// Periodic merging.
	if b.cfg.Merging != MergeOff {
		b.sinceMerge++
		if b.sinceMerge >= b.cfg.MergeEvery {
			b.sinceMerge = 0
			b.runMergePass()
		}
	}
}

// forwardSubscription sends a subscription to the next hops its matching
// advertisements indicate (or floods it without advertisements). With
// covering, a hop is skipped when a covering subscription was already
// forwarded to that same hop — the per-next-hop rule; suppressing a covered
// subscription entirely would lose publications arriving from directions
// the coverer's own path does not serve.
func (b *Broker) forwardSubscription(n *subtree.Node, st *subState, from string) {
	var coverers []*subtree.Node
	if b.cfg.UseCovering {
		coverers = b.prt.Coverers(n.XPE)
	}
	for _, hop := range b.subscriptionNextHops(n.XPE, from) {
		// Skip hops already served. Hops that themselves sent this
		// subscription are NOT skipped: they sent it on behalf of a
		// different subscriber direction and still need to learn of this
		// one for reverse-path delivery.
		if st.forwardedTo.has(hop) {
			continue
		}
		if coveredAtHop(coverers, hop) {
			continue
		}
		st.forwardedTo.add(hop)
		b.emit(hop, &Message{Type: MsgSubscribe, XPE: n.XPE})
	}
}

// coveredAtHop reports whether any coverer has already been forwarded to the
// hop.
func coveredAtHop(coverers []*subtree.Node, hop string) bool {
	for _, c := range coverers {
		if cst := stateOf(c); cst != nil && cst.forwardedTo.has(hop) {
			return true
		}
	}
	return false
}

// subscriptionNextHops returns, sorted, the hops other than from whose
// advertisements overlap x: a hop's advertisement index runs the exact
// overlap check only on the advertisements its symbol filter lets through.
// Client hops are skipped (a client publisher never takes subscriptions);
// so is "", the broker's own advertisements.
func (b *Broker) subscriptionNextHops(x *xpath.XPE, from string) []string {
	if !b.cfg.UseAdvertisements {
		out := make([]string, 0, len(b.neighbors))
		for _, nb := range b.neighbors {
			if nb != from {
				out = append(out, nb)
			}
		}
		return out
	}
	var out []string
	for hop, ix := range b.advIndex {
		if hop != "" && hop != from && !b.clients[hop] && ix.Overlaps(x) {
			out = append(out, hop)
		}
	}
	sort.Strings(out)
	return out
}

func (b *Broker) handleUnsubscribe(m *Message, from string) {
	if b.clients[from] {
		b.removeFilter(from, m.XPE)
	}
	n := b.prt.Lookup(m.XPE)
	if n == nil {
		return
	}
	b.dirty.prt = true
	st := stateOf(n)
	if st != nil {
		st.lastHops.del(from)
		if len(st.lastHops) > 0 {
			b.routeChanged(n, st)
			// Other peers still need the subscription, but a forward to a
			// hop is justified only by interest from some *other* direction.
			// If the sole remaining direction is a hop this subscription was
			// forwarded to, that forward is now vacuous — withdraw it, or
			// the hop keeps a phantom interest entry pointing back here.
			if only := st.lastHops[0]; len(st.lastHops) == 1 && st.forwardedTo.del(only) {
				b.emit(only, &Message{Type: MsgUnsubscribe, XPE: m.XPE})
			}
			return
		}
		b.syncEntry(n, st, false) // removed with the last direction
	}
	// The nodes this subscription covered — its adopted children — may have
	// had forwarding suppressed on hops it served; collect them before the
	// removal destroys the links. Spliced up to its parent, they are judged
	// against that parent now.
	uncovered := append([]*subtree.Node(nil), n.Children()...)
	b.prt.Remove(n)
	b.recheck(uncovered)
	// Propagate the withdrawal.
	if st != nil {
		for _, hop := range st.forwardedTo {
			b.emit(hop, &Message{Type: MsgUnsubscribe, XPE: m.XPE})
		}
	}
	// Uncovering: re-forward what this subscription suppressed. This must
	// run even when the removed node was itself covered — a covering
	// ancestor only serves the hops it was forwarded to, and the removed
	// node may have been the sole subscription forwarded on some hop.
	// forwardSubscription re-applies the per-hop covering rule against the
	// remaining coverers, so hops a surviving coverer already serves are
	// skipped.
	if b.cfg.UseCovering {
		for _, c := range uncovered {
			if cst := stateOf(c); cst != nil {
				b.forwardSubscription(c, cst, "")
			}
		}
	}
}

// runMergePass merges PRT siblings per the configured mode and translates
// each merger into network operations: unsubscribe the sources, subscribe
// the merger.
func (b *Broker) runMergePass() {
	b.dirty.prt = true
	maxDegree := 0.0
	if b.cfg.Merging == MergeImperfect {
		maxDegree = b.cfg.ImperfectDegree
	}
	opts := merge.Options{
		MaxDegree: maxDegree,
		Estimator: b.cfg.Estimator,
		OnMerge: func(m *merge.Merger, sources []*subtree.Node, mergerNode *subtree.Node) {
			b.stats.mergers.Add(1)
			st := stateOf(mergerNode)
			if st == nil {
				st = &subState{merger: true}
				mergerNode.Data = st
			}
			for _, src := range sources {
				sst := stateOf(src)
				if sst == nil {
					continue
				}
				for _, hop := range sst.lastHops {
					st.lastHops.add(hop)
				}
			}
			// Withdraw the sources upstream and forward the merger instead.
			for _, src := range sources {
				sst := stateOf(src)
				if sst == nil {
					continue
				}
				for _, hop := range sst.forwardedTo {
					b.emit(hop, &Message{Type: MsgUnsubscribe, XPE: src.XPE})
				}
			}
			for _, hop := range b.subscriptionNextHops(mergerNode.XPE, "") {
				if st.forwardedTo.add(hop) {
					b.emit(hop, &Message{Type: MsgSubscribe, XPE: mergerNode.XPE})
				}
			}
		},
	}
	merge.Pass(b.prt, opts)
	// Sources vanished, mergers appeared, hop sets unioned — anywhere in
	// the tree — and the absorbed client subscriptions need filter entries.
	b.reseedTable()
}
