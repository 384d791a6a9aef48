package broker

// Publish data plane: lock-free publication matching and forwarding against
// the immutable routing snapshot, plus the per-stage latency span and slow-
// publication capture.

import (
	"time"

	"repro/internal/slowlog"
	"repro/internal/stream"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// --- publications ---

// handlePublish matches one publication and forwards it. It is the lock-free
// data plane: it loads the routing snapshot once and reads only that
// immutable view plus atomic counters — zero mutex acquisitions, so
// publications never contend with each other or with control-plane updates.
// Every publication is matched by one run of the snapshot's shared automaton,
// which covers the PRT's last-hop entries and every client filter expression
// (DESIGN.md §5c): a whole document (Message.Raw, never parsed into a tree)
// by one streaming pass over its bytes (DESIGN.md §5e), and a path
// publication by one run over its interned path: the wire decoder resolves
// it (DESIGN.md §5h), and a hand-built publication carrying none is
// converted on arrival. A raw body
// that fails the streaming scan (malformed XML or the wire document bounds)
// is dropped and counted, never forwarded. For traced publications it
// returns the hop event for the caller to record; untraced traffic returns
// nil.
func (b *Broker) handlePublish(m *Message, from string) *trace.Event {
	snap := b.snap.Load()
	// Per-stage spans are measured only when someone will read them — an
	// attached metrics registry, the flight recorder, or a trace. For
	// untraced publications on an uninstrumented broker, measure is false and
	// the handler performs no clock reads at all; sp lives on the stack
	// either way, so the span machinery costs the hot path zero allocations.
	var sp pubSpan
	measure := b.stageMatch != nil || b.slow != nil || m.TraceID != ""
	if measure {
		sp.start = time.Now()
		var enqueued time.Time
		sp.decode, enqueued = m.Arrival()
		if !enqueued.IsZero() {
			if sp.queue = sp.start.Sub(enqueued); sp.queue < 0 {
				sp.queue = 0
			}
		}
	}
	// One automaton run sets the name rank of every destination a matching
	// entry reaches: PRT nodes their last hops (hops), client filter entries
	// their client (matched), so the edge filter below re-matches nothing.
	// Attribute predicates are evaluated in-network. Up to 64 destinations
	// the two sets are words on this stack; larger brokers borrow pooled
	// ones.
	var hopWord, matchWord [1]uint64
	hops, matched := destSet(hopWord[:]), destSet(matchWord[:])
	if len(snap.dests) > 64 {
		s := getDestScratch(setWords(len(snap.dests)))
		defer destScratchPool.Put(s)
		hops, matched = s.hops, s.matched
	}
	visit := func(data any) {
		r := data.(*route)
		if r.client >= 0 {
			matched.add(int(snap.rank[r.client]))
		}
		for _, id := range r.hops {
			hops.add(int(snap.rank[id]))
		}
	}
	if len(m.Raw) > 0 {
		// One pass over the bytes: syntax, wire bounds, and matching.
		if err := stream.Match(m.Raw, snap.auto, stream.WireLimits, visit); err != nil {
			b.stats.badDocs.Add(1)
			return nil
		}
	} else {
		path := m.Pub.SymPath
		if path == nil {
			// Hand-built: intern on arrival, into room on this stack (the
			// automaton run does not keep the path).
			var room [32]symtab.Sym
			path = symtab.AppendInternPath(room[:0], m.Pub.Path)
		}
		snap.auto.Match(path, m.Pub.Attrs, visit)
	}
	var matchEnd time.Time
	if measure {
		matchEnd = time.Now()
		sp.match = matchEnd.Sub(sp.start)
	}
	var ev *trace.Event
	var nowWall int64
	if m.TraceID != "" {
		nowWall = time.Now().UnixNano()
		ev = &trace.Event{
			TraceID:      m.TraceID,
			Broker:       b.cfg.ID,
			From:         from,
			RecvUnixNano: nowWall,
		}
	}
	// Filter pass: walk the reached destinations in name order, drop the
	// one the publication came from and the clients whose own subscriptions
	// did not match, and do the trace accounting. hops keeps the survivors.
	// Nothing is emitted yet — the traced hop record sealed below can then
	// carry the filter stage's duration.
	for r := hops.next(0); r >= 0; r = hops.next(r + 1) {
		d := &snap.dests[r]
		switch {
		case d.name == from:
			hops.del(r)
		case d.client && !matched.has(r):
			// Edge filtering: imperfect mergers must not leak false
			// positives to clients.
			hops.del(r)
			b.stats.falsePositives.Add(1)
			if ev != nil {
				ev.FilteredFor = append(ev.FilteredFor, d.name)
			}
		case d.client:
			b.stats.deliveries.Add(1)
			if ev != nil {
				ev.DeliveredTo = append(ev.DeliveredTo, d.name)
			}
		case ev != nil:
			ev.ForwardedTo = append(ev.ForwardedTo, d.name)
		}
	}
	var filterEnd time.Time
	if measure {
		filterEnd = time.Now()
		sp.filter = filterEnd.Sub(matchEnd)
	}
	// Traced publications travel on as a copy with this broker appended to
	// the hop list; the received message is never mutated (simulator peers
	// share message pointers). The hop is sealed after the filter pass so its
	// stage list carries decode, queue, match, and filter; enqueue and flush
	// happen later and appear in histograms and the inter-hop wall-clock gap.
	fwd := m
	if ev != nil {
		hopList := make([]trace.Hop, 0, len(m.Hops)+1)
		hopList = append(hopList, m.Hops...)
		hopList = append(hopList, trace.Hop{
			Broker:   b.cfg.ID,
			UnixNano: nowWall,
			Epoch:    snap.epoch,
			Stages:   sp.hopStages(),
		})
		fwd = m.variant()
		fwd.Hops = hopList
		ev.Hops = hopList
	}
	for r := hops.next(0); r >= 0; r = hops.next(r + 1) {
		// Durable virtual clients stay in hops through the filter pass (so
		// delivery counters see them) and peel off here: sequence + log
		// append + stamped emit to the attached client, if any.
		if d := &snap.dests[r]; d.dur != nil {
			b.durableDeliver(d.dur, fwd)
		} else {
			b.emit(d.name, fwd)
		}
	}
	if measure {
		sp.enqueue = time.Since(filterEnd)
		b.observeSpan(&sp)
		if b.slow != nil && sp.total() >= b.slow.Threshold() {
			b.recordSlow(&sp, fwd, from, snap, hops)
		}
	}
	return ev
}

// pubSpan accumulates one publication's per-stage timings on the broker's
// monotonic clock. It lives on the publish handler's stack; handlePublish
// decides whether it is measured at all.
type pubSpan struct {
	start   time.Time
	decode  time.Duration
	queue   time.Duration
	match   time.Duration
	filter  time.Duration
	enqueue time.Duration
}

// total is the publication's in-broker time — the value the flight
// recorder's threshold is compared against.
func (s *pubSpan) total() time.Duration {
	return s.decode + s.queue + s.match + s.filter + s.enqueue
}

// hopStages renders the stages known at hop-append time. Enqueue and flush
// happen after the hop record is sealed; across brokers they are part of the
// wall-clock gap between consecutive hop stamps.
func (s *pubSpan) hopStages() []trace.StageDur {
	return []trace.StageDur{
		{Stage: trace.StageDecode, Nanos: int64(s.decode)},
		{Stage: trace.StageQueue, Nanos: int64(s.queue)},
		{Stage: trace.StageMatch, Nanos: int64(s.match)},
		{Stage: trace.StageFilter, Nanos: int64(s.filter)},
	}
}

// observeSpan feeds the broker-side stage histograms. Decode and flush are
// observed by the transport that measures them (see package transport).
func (b *Broker) observeSpan(sp *pubSpan) {
	if b.stageQueue == nil {
		return
	}
	b.stageQueue.Observe(sp.queue.Seconds())
	b.stageMatch.Observe(sp.match.Seconds())
	b.stageFilter.Observe(sp.filter.Seconds())
	b.stageEnqueue.Observe(sp.enqueue.Seconds())
}

// recordSlow captures one over-threshold publication into the flight
// recorder. It runs only for already-slow publications, so its allocations
// and the QueueDepths callback stay off the healthy hot path.
func (b *Broker) recordSlow(sp *pubSpan, m *Message, from string, snap *routeSnapshot, dests destSet) {
	var names []string
	for r := dests.next(0); r >= 0; r = dests.next(r + 1) {
		names = append(names, snap.dests[r].name)
	}
	e := slowlog.Entry{
		Broker:     b.cfg.ID,
		From:       from,
		TraceID:    m.TraceID,
		UnixNano:   time.Now().UnixNano(),
		TotalNanos: int64(sp.total()),
		Stages: append(sp.hopStages(),
			trace.StageDur{Stage: trace.StageEnqueue, Nanos: int64(sp.enqueue)}),
		DocBytes:     len(m.Raw),
		Epoch:        snap.epoch,
		Hops:         len(m.Hops),
		Destinations: names,
	}
	if b.cfg.QueueDepths != nil {
		e.QueueDepths = b.cfg.QueueDepths()
	}
	b.slow.Record(e)
}
