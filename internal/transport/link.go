package transport

import (
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
)

// WireBinary names the wire codec; Options.Wire accepts nothing else.
const WireBinary = "binary"

// Options tunes a Server's self-healing behaviour. The zero value gives a
// server that reconnects with the default backoff, repairs every outage with
// a control-state resync, and sends no heartbeats.
type Options struct {
	// ReconnectMin and ReconnectMax bound the exponential backoff between
	// redial attempts of a lost neighbour link (defaults 50ms and 2s). Each
	// wait gets up to 50% random jitter so two brokers redialling each
	// other do not stay in lockstep.
	ReconnectMin, ReconnectMax time.Duration

	// DialBudget caps consecutive failed dial attempts per outage; once
	// exhausted the link stays quiescent until new control traffic or an
	// inbound connection revives it. 0 means unlimited.
	DialBudget int

	// Heartbeat, when positive, sends a heartbeat frame to every connected
	// neighbour at this interval. Heartbeats are consumed by the receiving
	// transport and never reach the broker.
	Heartbeat time.Duration

	// DeadAfter declares a neighbour dead when nothing (heartbeats
	// included) has been received for this long, dropping the connection so
	// the reconnect loop takes over. Default 3×Heartbeat; only active when
	// Heartbeat is set.
	DeadAfter time.Duration

	// ConnWrap, when non-nil, wraps every new connection (inbound and
	// dialled) before use — the fault-injection hook (see package
	// faultinject).
	ConnWrap func(net.Conn) net.Conn

	// DialTimeout bounds each TCP dial (default 2s).
	DialTimeout time.Duration

	// Wire may only be "" or WireBinary, the one codec (package wirefmt);
	// NewServerOptions panics on any other value.
	//
	// Deprecated: the field selects nothing and is kept only for callers
	// that still set it.
	Wire string
}

func (o Options) withDefaults() Options {
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3 * o.Heartbeat
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	return o
}

// healthStats counts self-healing events. All fields are atomics read by
// metric callbacks and by HealthStats().
type healthStats struct {
	reconnectAttempts atomic.Int64
	reconnects        atomic.Int64
	disconnects       atomic.Int64
	heartbeatsSent    atomic.Int64
	deadPeers         atomic.Int64
	droppedPubs       atomic.Int64
	droppedControl    atomic.Int64
	resyncs           atomic.Int64
	badFrames         atomic.Int64
	panics            atomic.Int64
}

// HealthStats is a point-in-time copy of a server's self-healing counters.
type HealthStats struct {
	ReconnectAttempts int64 // dial attempts for lost neighbour links
	Reconnects        int64 // neighbour links successfully re-established
	Disconnects       int64 // current connections lost, client or neighbour
	HeartbeatsSent    int64
	DeadPeers         int64 // connections dropped by the dead-peer detector
	DroppedPubs       int64 // publications dropped: a peer's link was down, or its connection closed before writing them
	DroppedControl    int64 // control messages dropped: a peer's link was down, or its connection closed before writing them
	Resyncs           int64 // control-state resyncs initiated after attach
	BadFrames         int64 // preambles and frames the wirefmt decoder rejected
	Panics            int64 // panics recovered on a read loop, each costing its connection
}

// Health snapshots the server's self-healing counters.
func (s *Server) Health() HealthStats {
	return HealthStats{
		ReconnectAttempts: s.stats.reconnectAttempts.Load(),
		Reconnects:        s.stats.reconnects.Load(),
		Disconnects:       s.stats.disconnects.Load(),
		HeartbeatsSent:    s.stats.heartbeatsSent.Load(),
		DeadPeers:         s.stats.deadPeers.Load(),
		DroppedPubs:       s.stats.droppedPubs.Load(),
		DroppedControl:    s.stats.droppedControl.Load(),
		Resyncs:           s.stats.resyncs.Load(),
		BadFrames:         s.stats.badFrames.Load(),
		Panics:            s.stats.panics.Load(),
	}
}

// QueueDepths snapshots the frames staged toward every live peer
// connection, keyed by peer ID. The broker's flight recorder calls it when
// capturing a slow publication, and /statusz serves it; it takes each
// connection's lock only to read a count, so it is safe at any time.
func (s *Server) QueueDepths() map[string]int {
	out := make(map[string]int)
	for _, l := range s.allLinks() {
		if pc := l.conn(); pc != nil {
			out[l.id] = pc.depth()
		}
	}
	return out
}

// LinkStatus is one neighbour link's health, served by /statusz.
type LinkStatus struct {
	Peer string `json:"peer"`
	// Up reports a live connection; false covers both an outage mid-redial
	// and a configured neighbour never yet contacted.
	Up bool `json:"up"`
	// QueueDepth is the number of outbound frames staged (0 when down).
	QueueDepth int `json:"queue_depth"`
	// LastRecvUnixNano is the wall-clock time of the last inbound frame
	// (heartbeats included); 0 before first contact.
	LastRecvUnixNano int64 `json:"last_recv_unix_nano,omitempty"`
	// TxBytes counts bytes written to the live connection since it
	// attached (frames only, not the preamble; resets on reconnect).
	TxBytes int64 `json:"tx_bytes,omitempty"`
	// BatchP50 is the connection's median frames per write — 1.0 means
	// batching is doing nothing, larger means syscalls are being amortised.
	BatchP50 float64 `json:"batch_p50,omitempty"`
}

// Links snapshots the health of every configured neighbour link, sorted by
// peer ID. Client links are left out.
func (s *Server) Links() []LinkStatus {
	out := make([]LinkStatus, 0, len(s.neighbors))
	seen := make(map[string]bool, len(s.neighbors))
	for _, l := range s.allLinks() {
		if l.addr == "" {
			continue
		}
		st := LinkStatus{Peer: l.id, LastRecvUnixNano: l.lastRecv.Load()}
		if pc := l.conn(); pc != nil {
			st.Up = true
			st.QueueDepth = pc.depth()
			st.TxBytes = pc.txBytes.Load()
			st.BatchP50 = pc.batchP50()
		}
		out = append(out, st)
		seen[l.id] = true
	}
	for id := range s.neighbors {
		if !seen[id] {
			out = append(out, LinkStatus{Peer: id})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// link owns one peer, client or neighbour: its live connection (if any) and,
// for a neighbour, the reconnect state machine. The broker's send callback
// routes every message through deliver; connection loss anywhere (write
// failure, read failure, dead-peer detection) funnels through connLost.
// Nothing is held for a down link: a neighbour is repaired by the resync
// after its next attach, a client by replaying its own record when it
// redials.
type link struct {
	s  *Server
	id string
	// addr is a neighbour's address. A client's link has none: nothing
	// dials it, it is not resynced, and it gets no heartbeats (a heartbeat
	// would reach Client.Deliveries).
	addr string

	mu       sync.Mutex
	pc       *peerConn // nil while the link is down
	dialing  bool      // a reconnect loop is running
	attempts int       // consecutive failed dials this outage

	// lastRecv is the unix-nano time of the last inbound frame, feeding
	// dead-peer detection.
	lastRecv atomic.Int64
}

// linkFor returns the link of a peer ID, creating it on first contact: a
// configured neighbour's link carries its address and starts its heartbeat
// loop when heartbeats are enabled; any other ID is a client.
func (s *Server) linkFor(id string) *link {
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	if l := s.links[id]; l != nil {
		return l
	}
	l := &link{s: s, id: id, addr: s.neighbors[id]}
	s.links[id] = l
	if l.addr != "" && s.opts.Heartbeat > 0 {
		select {
		case <-s.closed:
		default:
			s.wg.Add(1)
			go l.heartbeatLoop()
		}
	}
	return l
}

// allLinks snapshots the peer table.
func (s *Server) allLinks() []*link {
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	out := make([]*link, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l)
	}
	return out
}

// conn returns the live connection, or nil while the link is down.
func (l *link) conn() *peerConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pc
}

// deliver encodes a message onto the link's staged frames, or drops and
// counts it while the link is down. Called by the broker with its routing
// lock held, so it must never call back into the broker.
//
// A dropped control message loses no control state. Every control emission
// runs under the broker's exclusive lock, and the resync that follows an
// attach takes that lock after the new connection is installed. An emission
// that found the link down therefore finishes before that resync builds its
// claim, and the claim includes the dropped message's effect.
func (l *link) deliver(m *broker.Message) {
	if pc := l.conn(); pc != nil {
		if err := pc.write(m, true); err == nil {
			return
		}
		l.connLost(pc)
	}
	switch m.Type {
	case broker.MsgHeartbeat:
		// A heartbeat for a dead link is meaningless.
	case broker.MsgPublish:
		// Publications are only meaningful promptly; the paper's delivery
		// guarantee is re-established by resync plus fresh publications.
		l.s.stats.droppedPubs.Add(1)
		l.ensureDialing(false)
	default:
		l.s.stats.droppedControl.Add(1)
		l.ensureDialing(true)
	}
}

// attach installs a new connection as the link's active one, replacing (and
// shutting down) any previous connection, and publishes its staged-frames
// gauge. The frames a replaced connection had staged are counted as
// dropped. A neighbour's caller must follow up with resyncAfterAttach once it
// is not holding any broker lock.
//
// Two neighbours that dial each other at once would each replace the
// connection it dialled with the one it accepted, closing the one the other
// side kept: both links drop and redial, the crossing can repeat, and each
// round loses what the replaced connections had staged. So when a live
// connection and a new one run in opposite directions, both sides keep the
// one the broker with the smaller id dialled, and attach refuses the other,
// reporting false. Only the larger side closes the loser, a connection it
// dialled: the smaller side stops writing to it and reads it until then
// (serveConn), since closing it first would make the larger side redial at
// once, only to be refused again.
func (l *link) attach(pc *peerConn) bool {
	l.mu.Lock()
	old := l.pc
	smaller := l.s.cfg.ID < l.id
	crossing := old != nil && old.dialled != pc.dialled && old.live()
	if crossing && old.dialled == smaller {
		l.mu.Unlock()
		return false
	}
	l.lastRecv.Store(time.Now().UnixNano())
	l.pc = pc
	l.dialing = false
	l.attempts = 0
	// Under the link lock, so a racing connLost of the old connection
	// cannot unregister the new connection's gauge.
	if reg := l.s.reg; reg != nil {
		reg.GaugeFunc("xbroker_send_queue_depth",
			"Outbound frames staged toward a peer connection.",
			func() float64 { return float64(pc.depth()) }, "peer", l.id)
	}
	l.mu.Unlock()
	switch {
	case crossing && smaller:
		old.stopWriter()
	case old != nil:
		old.shutdown()
	}
	// A connection attached while Close is sweeping the links would be
	// missed by the sweep and its read loop would outlive the server. The
	// store above and this check bracket Close's close(closed)+sweep pair:
	// either the sweep sees the connection, or this check sees closed.
	select {
	case <-l.s.closed:
		pc.shutdown()
	default:
	}
	return true
}

// connLost records that a connection died. Only the goroutine that observes
// the currently-attached connection failing counts the disconnect, removes
// the gauge and starts a reconnect; stale connections (already replaced by a
// newer attach) are just shut down.
func (l *link) connLost(pc *peerConn) {
	l.mu.Lock()
	current := l.pc == pc
	if current {
		l.pc = nil
		if reg := l.s.reg; reg != nil {
			reg.Unregister("xbroker_send_queue_depth", "peer", l.id)
		}
	}
	l.mu.Unlock()
	pc.shutdown()
	if current {
		l.s.stats.disconnects.Add(1)
		l.ensureDialing(false)
	}
}

// ensureDialing starts the reconnect loop if the link is a neighbour's, is
// down, and no loop is already running. revive re-arms a link whose dial
// budget was exhausted — new control traffic is evidence the neighbour is
// still wanted.
func (l *link) ensureDialing(revive bool) {
	if l.addr == "" {
		return // a client redials by itself
	}
	select {
	case <-l.s.closed:
		return
	default:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pc != nil || l.dialing {
		return
	}
	if b := l.s.opts.DialBudget; b > 0 && l.attempts >= b {
		if !revive {
			return
		}
		l.attempts = 0
	}
	l.dialing = true
	l.s.wg.Add(1)
	go l.reconnectLoop()
}

// reconnectLoop redials the neighbour with backoff until it succeeds, the
// dial budget runs out, the server closes, or an inbound connection attaches
// first.
func (l *link) reconnectLoop() {
	defer l.s.wg.Done()
	wait := backoff{min: l.s.opts.ReconnectMin, max: l.s.opts.ReconnectMax}
	for {
		l.mu.Lock()
		if l.pc != nil { // an inbound connection won the race
			l.dialing = false
			l.mu.Unlock()
			return
		}
		if b := l.s.opts.DialBudget; b > 0 && l.attempts >= b {
			l.dialing = false
			l.mu.Unlock()
			return
		}
		l.attempts++
		l.mu.Unlock()

		l.s.stats.reconnectAttempts.Add(1)
		if l.s.dialNeighbor(l) == nil {
			l.s.stats.reconnects.Add(1)
			return // dialNeighbor attached and resynced
		}
		if !wait.sleep(l.s.closed) {
			l.mu.Lock()
			l.dialing = false
			l.mu.Unlock()
			return
		}
	}
}

// resyncAfterAttach replays the control state owed to the neighbour. It must
// not run while a broker lock is held (ResyncFor takes the exclusive lock).
func (l *link) resyncAfterAttach() {
	l.s.stats.resyncs.Add(1)
	l.s.b.ResyncFor(l.id)
}

// heartbeatLoop periodically sends heartbeat frames on the link and drops
// connections that have gone silent past the dead-peer threshold.
func (l *link) heartbeatLoop() {
	defer l.s.wg.Done()
	t := time.NewTicker(l.s.opts.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-l.s.closed:
			return
		case <-t.C:
		}
		pc := l.conn()
		if pc == nil {
			continue
		}
		if silent := time.Since(time.Unix(0, l.lastRecv.Load())); silent > l.s.opts.DeadAfter {
			l.s.stats.deadPeers.Add(1)
			l.connLost(pc)
			continue
		}
		// A beat that finds the staged frames full is skipped, not waited
		// for: a peer that stopped reading would hold this loop in the
		// write forever, and only the silence check above declares it
		// dead. A writer that exited has closed the connection, so its
		// read loop reports the loss.
		if pc.write(heartbeat, false) == nil {
			l.s.stats.heartbeatsSent.Add(1)
		}
	}
}

// heartbeat is the one heartbeat message every link encodes.
var heartbeat = &broker.Message{Type: broker.MsgHeartbeat}

// backoff is the one retry schedule of the accept loop, a neighbour's
// redial and a client's redial: the window starts at min and doubles up to
// max after every wait, and each wait is drawn from the window's upper half,
// so two brokers redialling each other do not stay in lockstep.
type backoff struct {
	min, max, window time.Duration
}

// sleep waits out the next wait and widens the window, reporting false if
// stop closes first.
func (b *backoff) sleep(stop <-chan struct{}) bool {
	b.window = max(b.window, b.min)
	t := time.NewTimer(b.window/2 + time.Duration(rand.Int63n(int64(b.window/2)+1)))
	defer t.Stop()
	b.window = min(2*b.window, b.max)
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// registerHealthMetrics exposes the self-healing counters on the server's
// metrics registry.
func (s *Server) registerHealthMetrics() {
	counters := []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"xbroker_link_reconnect_attempts", "Dial attempts for lost neighbour links.", &s.stats.reconnectAttempts},
		{"xbroker_link_reconnects", "Neighbour links successfully re-established.", &s.stats.reconnects},
		{"xbroker_link_disconnects", "Peer connections lost, client or neighbour.", &s.stats.disconnects},
		{"xbroker_link_heartbeats_sent", "Heartbeat frames sent to neighbours.", &s.stats.heartbeatsSent},
		{"xbroker_link_dead_peers", "Connections dropped by dead-peer detection.", &s.stats.deadPeers},
		{"xbroker_link_dropped_publications", "Publications dropped while a peer's link was down or because its connection closed before writing them, client or neighbour.", &s.stats.droppedPubs},
		{"xbroker_link_dropped_control", "Control messages dropped while a peer's link was down or because its connection closed before writing them (a neighbour's resync at attach, or a client's replay, repairs them).", &s.stats.droppedControl},
		{"xbroker_link_resyncs", "Control-state resyncs initiated after (re)connects.", &s.stats.resyncs},
		{"xbroker_wire_bad_frames", "Inbound preambles and frames rejected by the wire decoder.", &s.stats.badFrames},
		{"xbroker_panics_total", "Panics recovered while handling an inbound frame; each closed its connection.", &s.stats.panics},
	}
	for _, c := range counters {
		v := c.v
		s.reg.CounterFunc(c.name, c.help, func() float64 { return float64(v.Load()) })
	}
	// The constant codec label outlives the second codec because
	// cmd/xload/layers.go selects these series by it.
	a := &s.wireTx
	s.reg.CounterFunc("xbroker_wire_tx_bytes_total",
		"Bytes written to peers (preambles excluded).",
		func() float64 { return float64(a.bytes.Load()) }, "codec", WireBinary)
	s.reg.CounterFunc("xbroker_wire_tx_frames_total",
		"Message frames written to peers.",
		func() float64 { return float64(a.frames.Load()) }, "codec", WireBinary)
	s.reg.CounterFunc("xbroker_wire_tx_batches_total",
		"Writes toward peers; frames/batches is the mean batch size.",
		func() float64 { return float64(a.batches.Load()) }, "codec", WireBinary)
}
