package broker

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advert"
	"repro/internal/merge"
	"repro/internal/metrics"
	"repro/internal/pmatch"
	"repro/internal/slowlog"
	"repro/internal/subtree"
	"repro/internal/trace"
)

// MergingMode selects the broker's merging optimisation.
type MergingMode uint8

const (
	// MergeOff disables merging.
	MergeOff MergingMode = iota
	// MergePerfect applies only perfect mergers (imperfect degree 0).
	MergePerfect
	// MergeImperfect applies mergers up to Config.ImperfectDegree.
	MergeImperfect
)

// String names the merging mode for logs and metric labels.
func (m MergingMode) String() string {
	switch m {
	case MergeOff:
		return "off"
	case MergePerfect:
		return "perfect"
	case MergeImperfect:
		return "imperfect"
	default:
		return "unknown"
	}
}

// Config selects the routing strategy, mirroring the paper's evaluated
// combinations (no-Adv-no-Cov ... with-Adv-with-CovIPM).
type Config struct {
	// ID names the broker; peers address it by ID.
	ID string
	// UseAdvertisements routes subscriptions toward matching advertisements
	// instead of flooding them.
	UseAdvertisements bool
	// UseCovering suppresses forwarding of covered subscriptions and
	// unsubscribes newly covered ones.
	UseCovering bool
	// Merging selects the merging optimisation. Merging presupposes
	// covering (the subscription tree orders merge candidates); enabling it
	// without UseCovering is unsupported.
	Merging MergingMode
	// ImperfectDegree is the D_imperfect tolerance for MergeImperfect.
	ImperfectDegree float64
	// Estimator computes imperfect degrees; required for any merging mode
	// (perfect merging needs it to prove degree 0).
	Estimator *merge.DegreeEstimator
	// MergeEvery runs a merge pass after this many new subscriptions
	// (default 64).
	MergeEvery int

	// Metrics, when non-nil, receives the broker's instruments: the
	// per-stage publish-path histograms (xbroker_stage_seconds), plus
	// func-backed counters and gauges reading the broker's existing
	// atomics and table sizes at exposition time, so the publish data
	// plane gains no new contention. Nil disables instrumentation.
	Metrics *metrics.Registry
	// TraceSink, when non-nil, receives one trace.Event per traced
	// publication crossing this broker (see Message.TraceID). Events are
	// recorded after the routing lock is released.
	TraceSink trace.Sink
	// SlowLog, when non-nil, is the slow-publication flight recorder: any
	// publication whose measured in-broker time (decode + match + filter +
	// enqueue) reaches SlowLog.Threshold() is captured with its
	// full stage breakdown. Healthy publications pay one comparison.
	SlowLog *slowlog.Log
	// QueueDepths, when non-nil, snapshots the transport's per-peer send
	// queue depths; it is called only when a slow publication is captured
	// (never on the healthy hot path). The TCP transport installs it.
	QueueDepths func() map[string]int

	// Durable, when non-nil, is the write-ahead publication log backing
	// durable named subscriptions (see DurableStore and DESIGN.md §5i).
	// Nil disables durability: MsgSubscribeDurable and MsgAck are ignored
	// and the publish path pays one snapshot-map length check per hop.
	Durable DurableStore
}

// StrategyName renders the routing strategy compactly for logs and
// /debug/routes, mirroring the paper's strategy matrix: "adv+cov", "noadv+nocov",
// "adv+cov+merge-imperfect", ...
func (c Config) StrategyName() string {
	parts := make([]string, 0, 3)
	if c.UseAdvertisements {
		parts = append(parts, "adv")
	} else {
		parts = append(parts, "noadv")
	}
	if c.UseCovering {
		parts = append(parts, "cov")
	} else {
		parts = append(parts, "nocov")
	}
	if c.Merging != MergeOff {
		parts = append(parts, "merge-"+c.Merging.String())
	}
	return strings.Join(parts, "+")
}

// Stats counts a broker's activity.
type Stats struct {
	MsgsIn         map[MsgType]int64
	MsgsOut        map[MsgType]int64
	Deliveries     int64 // publications handed to clients
	FalsePositives int64 // publications reaching an edge broker's client filter without a matching client subscription
	Mergers        int64 // subscription mergers applied by the periodic pass
	BadDocuments   int64 // raw publication bodies dropped (malformed XML or wire document bounds)
}

// counters is the broker's internal, lock-free statistics representation.
// Publications are counted on the shared-lock hot path from many goroutines
// at once, so every counter is an atomic; message-type counters are fixed
// arrays indexed by MsgType (small and dense) rather than maps.
type counters struct {
	msgsIn         [msgTypeCount]atomic.Int64
	msgsOut        [msgTypeCount]atomic.Int64
	deliveries     atomic.Int64
	falsePositives atomic.Int64
	mergers        atomic.Int64
	badDocs        atomic.Int64
}

// msgTypeCount bounds the MsgType enum for array-indexed counters.
const msgTypeCount = int(MsgReplayEnd) + 1

// Broker is one content-based XML router, safe for concurrent use.
//
// Concurrency model: broker state splits into a control plane and a data
// plane. Control messages (advertise, unadvertise, subscribe, unsubscribe,
// and the merge pass they trigger) mutate the master SRT and PRT under the
// exclusive lock and, before releasing it, publish an immutable
// routeSnapshot through an atomic pointer. Publish — the hot path —
// acquires no mutex at all: it loads the snapshot once and matches against
// that consistent view (subtree.Match* are read-only, see that package's
// docs), so any number of publications are matched in parallel and never
// contend with control-plane updates. A publication racing a control change
// is routed by either the old or the new table, exactly as if it had
// arrived entirely before or after the change. Counters are atomics and
// never require the lock. The send callback must not mutate the broker from
// publish context; for control messages it is invoked while the exclusive
// lock is held and must not call back into the broker.
type Broker struct {
	cfg  Config
	send func(to string, m *Message)

	// mu serialises the control plane (and guards the master tables below).
	// The publish data plane never takes it.
	mu sync.RWMutex

	// snap is the immutable routing state the publish data plane reads,
	// swapped by publishSnapshot at the end of every control mutation.
	snap atomic.Pointer[routeSnapshot]
	// dirty tracks which master tables the current control message touched;
	// guarded by mu.
	dirty snapDirty
	// table is the single writer of the snapshot's matching automaton,
	// edited by the control handlers at the point of change. Guarded by mu.
	table *pmatch.Table

	neighbors []string        // broker peers
	clients   map[string]bool // client peers

	// destIDs and destNames are the destination-id space (dest.go): a
	// stable id per name, and the name per id.
	destIDs   map[string]int32
	destNames []string

	// SRT: advertisements with last hops, deduplicated by AdvID. advIndex
	// holds every SRT entry in its last hop's advertisement index;
	// subscriptionNextHops asks those indexes instead of scanning srt.
	srt      []*advEntry
	srtByID  map[string]*advEntry
	advIndex map[string]*advert.Index
	// flatSRT holds the non-recursive SRT entries by last hop and length,
	// each list in SRT order: advertisement covering compares a new
	// non-recursive advertisement only with the one list it can be
	// covered from. Empty without Config.UseCovering.
	flatSRT map[flatKey][]*advEntry

	// PRT: the subscription tree; node Data holds *subState.
	prt *subtree.Tree
	// clientSubs holds each client's original subscriptions, by
	// xpath.XPE.Key, for final delivery filtering: mergers may
	// overapproximate, and the paper's semantics require that false
	// positives never reach clients.
	clientSubs map[string]map[string]clientFilter

	// durables holds the master durable-subscription states by name;
	// guarded by mu (the states themselves carry their own locks for the
	// publish plane — see durState).
	durables map[string]*durState
	// durable mirrors Config.Durable for nil checks off the lock.
	durable DurableStore

	sinceMerge int
	stats      counters

	// Per-stage publish-path histograms (xbroker_stage_seconds{stage=...}),
	// pre-resolved so the hot path never touches the registry; all nil when
	// Config.Metrics is nil. The decode and flush stages live in the
	// transport, which measures them (see package transport).
	stageMatch, stageFilter, stageEnqueue *metrics.Histogram
	// slow mirrors Config.SlowLog for the hot-path nil check.
	slow *slowlog.Log
	// nfaBuildSeconds records how long each automaton-changing control
	// message took to handle, sealing included (nil when Config.Metrics is
	// nil).
	nfaBuildSeconds *metrics.Histogram
}

type advEntry struct {
	id      string
	adv     *advert.Advertisement
	lastHop string
	slot    int // the entry's slot in advIndex[lastHop]
}

// flatKey is the (last hop, length) bucket of a non-recursive SRT entry.
// An advertisement covers another only when both came from the same hop
// and have the same length (cover.CoversAdvertisement).
type flatKey struct {
	hop string
	n   int
}

// coverKey returns e's covering bucket and whether it has one: only
// non-recursive advertisements take part in advertisement covering, and
// only under Config.UseCovering.
func (b *Broker) coverKey(e *advEntry) (flatKey, bool) {
	return flatKey{e.lastHop, len(e.adv.Tokens())}, b.cfg.UseCovering && !e.adv.IsRecursive()
}

// subState is the routing payload of a PRT node.
type subState struct {
	lastHops    hopSet
	forwardedTo hopSet
	merger      bool
	// entry is the node's matching-table entry (payload: lastHops as ids);
	// the zero Handle while it has none.
	entry pmatch.Handle
}

// hopSet is a set of peer names kept as a sorted slice. Almost every PRT
// node's sets hold one or two hops, so a slice is far smaller than a map,
// and ranging over it visits hops in name order: the control messages a
// change emits come out in a fixed order. The zero value is the empty set.
type hopSet []string

func (s hopSet) has(hop string) bool {
	_, ok := slices.BinarySearch(s, hop)
	return ok
}

// add inserts hop and reports whether it was missing.
func (s *hopSet) add(hop string) bool {
	i, ok := slices.BinarySearch(*s, hop)
	if !ok {
		*s = slices.Insert(*s, i, hop)
	}
	return !ok
}

// del removes hop and reports whether it was present.
func (s *hopSet) del(hop string) bool {
	i, ok := slices.BinarySearch(*s, hop)
	if ok {
		*s = slices.Delete(*s, i, i+1)
	}
	return ok
}

func stateOf(n *subtree.Node) *subState {
	s, _ := n.Data.(*subState)
	return s
}

// New constructs a broker. Neighbors and clients are registered afterwards
// with AddNeighbor/AddClient; send delivers a message to a peer by ID.
func New(cfg Config, send func(to string, m *Message)) *Broker {
	if cfg.MergeEvery <= 0 {
		cfg.MergeEvery = 64
	}
	b := &Broker{
		cfg:        cfg,
		send:       send,
		clients:    make(map[string]bool),
		destIDs:    make(map[string]int32),
		srtByID:    make(map[string]*advEntry),
		advIndex:   make(map[string]*advert.Index),
		flatSRT:    make(map[flatKey][]*advEntry),
		prt:        subtree.New(),
		clientSubs: make(map[string]map[string]clientFilter),
		durables:   make(map[string]*durState),
		durable:    cfg.Durable,
		table:      pmatch.NewTable(),
	}
	// The empty snapshot a new broker publishes before any control traffic.
	b.snap.Store(&routeSnapshot{
		durables: map[string]*durState{},
		auto:     b.table.Seal(),
	})
	b.slow = cfg.SlowLog
	if cfg.Metrics != nil {
		b.registerMetrics(cfg.Metrics)
	}
	return b
}

// registerMetrics publishes the broker's instruments. Counters and table
// gauges are func-backed — they read the existing atomics and sizes at
// exposition time — so only the stage histograms add work (a few atomic
// adds) to the publish hot path.
func (b *Broker) registerMetrics(reg *metrics.Registry) {
	const stageHelp = "Publish-path stage latency in seconds, by pipeline stage " +
		"(decode, match, filter, enqueue, flush — see DESIGN.md §5f)."
	b.stageMatch = reg.Histogram("xbroker_stage_seconds", stageHelp,
		metrics.DefBuckets, "stage", trace.StageMatch)
	b.stageFilter = reg.Histogram("xbroker_stage_seconds", stageHelp,
		metrics.DefBuckets, "stage", trace.StageFilter)
	b.stageEnqueue = reg.Histogram("xbroker_stage_seconds", stageHelp,
		metrics.DefBuckets, "stage", trace.StageEnqueue)
	if b.slow != nil {
		reg.CounterFunc("xbroker_slow_publications_total",
			"Publications captured by the slow-publication flight recorder (/debug/slow).",
			func() float64 { return float64(b.slow.Total()) })
		reg.GaugeFunc("xbroker_slow_threshold_seconds",
			"In-broker latency above which a publication is captured by the flight recorder.",
			func() float64 { return b.slow.Threshold().Seconds() })
	}
	reg.CounterFunc("xbroker_deliveries_total",
		"Publications handed to local clients.",
		func() float64 { return float64(b.stats.deliveries.Load()) })
	reg.CounterFunc("xbroker_false_positives_total",
		"Publications suppressed by the edge client filter (imperfect-merging false positives).",
		func() float64 { return float64(b.stats.falsePositives.Load()) })
	reg.CounterFunc("xbroker_mergers_total",
		"Subscription mergers applied by the periodic merge pass.",
		func() float64 { return float64(b.stats.mergers.Load()) })
	reg.CounterFunc("xbroker_bad_documents_total",
		"Raw publication bodies dropped: malformed XML or wire document bounds.",
		func() float64 { return float64(b.stats.badDocs.Load()) })
	for t := 1; t < msgTypeCount; t++ {
		t := MsgType(t)
		reg.CounterFunc("xbroker_msgs_in_total",
			"Messages received, by protocol type.",
			func() float64 { return float64(b.stats.msgsIn[t].Load()) }, "type", t.String())
		reg.CounterFunc("xbroker_msgs_out_total",
			"Messages sent, by protocol type.",
			func() float64 { return float64(b.stats.msgsOut[t].Load()) }, "type", t.String())
	}
	reg.GaugeFunc("xbroker_srt_advertisements",
		"Advertisements stored in the subscription routing table.",
		func() float64 { return float64(b.SRTSize()) })
	reg.GaugeFunc("xbroker_prt_subscriptions",
		"Subscriptions stored in the publication routing table.",
		func() float64 { return float64(b.PRTSize()) })
	reg.GaugeFunc("xbroker_prt_nodes",
		"Nodes in the covering tree.",
		func() float64 { return float64(b.PRTStats().Nodes) })
	reg.GaugeFunc("xbroker_prt_edges",
		"Parent-child (covering) edges in the covering tree.",
		func() float64 { return float64(b.PRTStats().Edges) })
	reg.GaugeFunc("xbroker_snapshot_epoch",
		"Routing-snapshot epoch: increments each time a control-plane change swaps the publish view.",
		func() float64 { return float64(b.SnapshotEpoch()) })
	if b.durable != nil {
		reg.GaugeFunc("xbroker_durable_subscriptions",
			"Durable named subscriptions registered on this broker.",
			func() float64 { return float64(len(b.snap.Load().durables)) })
	}
	b.nfaBuildSeconds = reg.Histogram("xbroker_nfa_build_seconds",
		"Handling time, sealing included, of each control message that changed the shared automaton.",
		metrics.DefBuckets)
	reg.GaugeFunc("xbroker_nfa_states",
		"States in the shared path-matching automaton of the current snapshot.",
		func() float64 { return float64(b.NFAStats().States) })
	reg.GaugeFunc("xbroker_nfa_edges",
		"Transitions (symbol, wildcard, self-loop, and epsilon) in the shared matching automaton.",
		func() float64 { return float64(b.NFAStats().Edges) })
	reg.GaugeFunc("xbroker_nfa_entries",
		"Expressions compiled into the shared matching automaton (PRT last-hop nodes plus client filter entries).",
		func() float64 { return float64(b.NFAStats().Entries) })
}

// ID returns the broker's identifier.
func (b *Broker) ID() string { return b.cfg.ID }

// AddNeighbor registers a neighbouring broker.
func (b *Broker) AddNeighbor(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.neighbors = append(b.neighbors, id)
	sort.Strings(b.neighbors)
}

// AddClient registers a directly connected client.
func (b *Broker) AddClient(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	start := time.Now()
	b.clients[id] = true
	b.dirty.dests = true
	b.publishSnapshot(start)
}

// Stats returns a snapshot of the broker's counters. It never blocks on the
// broker lock: counters are atomics.
func (b *Broker) Stats() Stats {
	out := Stats{
		MsgsIn:         make(map[MsgType]int64),
		MsgsOut:        make(map[MsgType]int64),
		Deliveries:     b.stats.deliveries.Load(),
		FalsePositives: b.stats.falsePositives.Load(),
		Mergers:        b.stats.mergers.Load(),
		BadDocuments:   b.stats.badDocs.Load(),
	}
	for t := 1; t < msgTypeCount; t++ {
		if v := b.stats.msgsIn[t].Load(); v != 0 {
			out.MsgsIn[MsgType(t)] = v
		}
		if v := b.stats.msgsOut[t].Load(); v != 0 {
			out.MsgsOut[MsgType(t)] = v
		}
	}
	return out
}

// PRTSize returns the number of subscriptions stored in the PRT. It reads
// the routing snapshot and never blocks on the broker lock.
func (b *Broker) PRTSize() int {
	return b.snap.Load().prtSize
}

// SRTSize returns the number of advertisements stored in the SRT. It reads
// the routing snapshot and never blocks on the broker lock.
func (b *Broker) SRTSize() int {
	return b.snap.Load().srtSize
}

// PRT exposes the subscription tree for experiments and tests. The caller
// must not use it concurrently with message handling.
func (b *Broker) PRT() *subtree.Tree { return b.prt }

// TreeStats describes the covering tree's shape.
type TreeStats struct {
	Nodes int
	Edges int // parent-child (covering) edges
}

// PRTStats measures the covering tree. It reads the routing snapshot, so
// metric exposition never blocks the control plane.
func (b *Broker) PRTStats() TreeStats {
	return b.snap.Load().prtStats
}

// RouteTables is a JSON-serialisable snapshot of the broker's routing
// state, served by the admin endpoint /debug/routes.
type RouteTables struct {
	Broker         string     `json:"broker"`
	Strategy       string     `json:"strategy"`
	Neighbors      []string   `json:"neighbors"`
	Clients        []string   `json:"clients,omitempty"`
	Advertisements []AdvRoute `json:"advertisements"`
	Subscriptions  []SubRoute `json:"subscriptions"`
}

// AdvRoute is one SRT entry.
type AdvRoute struct {
	ID        string `json:"id"`
	Expr      string `json:"expr"`
	LastHop   string `json:"last_hop"`
	Recursive bool   `json:"recursive,omitempty"`
}

// SubRoute is one PRT entry.
type SubRoute struct {
	XPE         string   `json:"xpe"`
	LastHops    []string `json:"last_hops"`
	ForwardedTo []string `json:"forwarded_to,omitempty"`
	// Parent is the covering parent's expression ("" for top-level nodes).
	Parent string `json:"parent,omitempty"`
	Merger bool   `json:"merger,omitempty"`
}

// Routes snapshots both routing tables under the shared lock.
func (b *Broker) Routes() RouteTables {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := RouteTables{
		Broker:         b.cfg.ID,
		Strategy:       b.cfg.StrategyName(),
		Neighbors:      append([]string(nil), b.neighbors...),
		Clients:        sortedKeys(b.clients),
		Advertisements: make([]AdvRoute, 0, len(b.srt)),
		Subscriptions:  make([]SubRoute, 0, b.prt.Size()),
	}
	for _, e := range b.srt {
		out.Advertisements = append(out.Advertisements, AdvRoute{
			ID:        e.id,
			Expr:      e.adv.String(),
			LastHop:   e.lastHop,
			Recursive: e.adv.IsRecursive(),
		})
	}
	b.prt.Walk(func(n *subtree.Node) {
		sr := SubRoute{XPE: n.XPE.String()}
		if p := n.Parent(); p != nil {
			sr.Parent = p.XPE.String()
		}
		if st := stateOf(n); st != nil {
			sr.LastHops = append([]string{}, st.lastHops...)
			sr.ForwardedTo = append([]string{}, st.forwardedTo...)
			sr.Merger = st.merger
		}
		out.Subscriptions = append(out.Subscriptions, sr)
	})
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HandleMessage processes one incoming message from peer `from`. It is safe
// for concurrent use: control messages serialise on the exclusive lock (and
// swap the routing snapshot before releasing it) while publications are
// matched lock-free against the snapshot, in parallel with each other and
// with control changes.
func (b *Broker) HandleMessage(m *Message, from string) {
	if int(m.Type) < msgTypeCount {
		b.stats.msgsIn[m.Type].Add(1)
	}
	switch m.Type {
	case MsgPublish:
		ev := b.handlePublish(m, from)
		// Trace events are recorded outside any routing structure, so the
		// sink may lock freely without entering the broker's hierarchy.
		if ev != nil && b.cfg.TraceSink != nil {
			b.cfg.TraceSink.Record(*ev)
		}
	case MsgAck:
		// Acks ride the data plane: a cursor advance is an atomic max plus
		// a store call, never a snapshot swap.
		b.handleAck(m)
	case MsgAdvertise, MsgUnadvertise, MsgSubscribe, MsgUnsubscribe, MsgResync, MsgSubscribeDurable:
		b.mu.Lock()
		defer b.mu.Unlock()
		start := time.Now()
		switch m.Type {
		case MsgAdvertise:
			b.handleAdvertise(m, from)
		case MsgUnadvertise:
			b.handleUnadvertise(m, from)
		case MsgSubscribe:
			b.handleSubscribe(m, from)
		case MsgUnsubscribe:
			b.handleUnsubscribe(m, from)
		case MsgResync:
			b.handleResync(m, from)
		case MsgSubscribeDurable:
			b.handleSubscribeDurable(m, from)
		}
		// Swap the publish view before the lock drops: the next publication
		// to load the snapshot observes this control change in full.
		b.publishSnapshot(start)
	}
}

func (b *Broker) emit(to string, m *Message) {
	if int(m.Type) < msgTypeCount {
		b.stats.msgsOut[m.Type].Add(1)
	}
	b.send(to, m)
}
