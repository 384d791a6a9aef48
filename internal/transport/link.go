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
// server that reconnects with the default backoff, buffers control messages
// during outages, and sends no heartbeats.
type Options struct {
	// Workers sizes the publication-matching pool; 0 means GOMAXPROCS.
	Workers int

	// ReconnectMin and ReconnectMax bound the exponential backoff between
	// redial attempts of a lost neighbour link (defaults 50ms and 2s). Each
	// wait gets up to 50% random jitter so two brokers redialling each
	// other do not stay in lockstep.
	ReconnectMin, ReconnectMax time.Duration

	// DialBudget caps consecutive failed dial attempts per outage; once
	// exhausted the link stays quiescent until new control traffic or an
	// inbound connection revives it. 0 means unlimited.
	DialBudget int

	// RetryBuffer bounds the control messages (advertise, subscribe,
	// unsubscribe, resync, ...) held per neighbour while its link is down;
	// they are flushed in order on reconnect. When the buffer is full the
	// oldest message is dropped and counted — the resync that follows every
	// reconnect repairs whatever the overflow lost. Default 1024.
	RetryBuffer int

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

	// FlushInterval makes the send-batching writer linger this long after
	// the first staged frame, growing the batch before the vectored write.
	// 0 (the default) flushes as soon as the queue is momentarily empty —
	// batching under load, zero added latency when idle. Values beyond a
	// few ms trade delivery latency for syscall amortisation.
	FlushInterval time.Duration

	// MaxBatchBytes flushes a batch once this many bytes are staged
	// (default 256KiB); MaxBatchFrames once this many frames are
	// (default 128).
	MaxBatchBytes  int
	MaxBatchFrames int
}

func (o Options) withDefaults() Options {
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	if o.RetryBuffer <= 0 {
		o.RetryBuffer = 1024
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3 * o.Heartbeat
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 256 << 10
	}
	if o.MaxBatchFrames <= 0 {
		o.MaxBatchFrames = 128
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
	retryBuffered     atomic.Int64
	retryFlushed      atomic.Int64
	retryOverflow     atomic.Int64
	resyncs           atomic.Int64
	badFrames         atomic.Int64
}

// HealthStats is a point-in-time copy of a server's self-healing counters.
type HealthStats struct {
	ReconnectAttempts int64 // dial attempts for lost neighbour links
	Reconnects        int64 // neighbour links successfully re-established
	Disconnects       int64 // neighbour connections lost
	HeartbeatsSent    int64
	DeadPeers         int64 // connections dropped by the dead-peer detector
	DroppedPubs       int64 // publications dropped because a link was down
	RetryBuffered     int64 // control messages buffered during outages
	RetryFlushed      int64 // buffered control messages delivered on reconnect
	RetryOverflow     int64 // control messages evicted from a full buffer
	Resyncs           int64 // control-state resyncs initiated after attach
	BadFrames         int64 // preambles and frames the wirefmt decoder rejected
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
		RetryBuffered:     s.stats.retryBuffered.Load(),
		RetryFlushed:      s.stats.retryFlushed.Load(),
		RetryOverflow:     s.stats.retryOverflow.Load(),
		Resyncs:           s.stats.resyncs.Load(),
		BadFrames:         s.stats.badFrames.Load(),
	}
}

// QueueDepths snapshots every live peer connection's outbound send-queue
// depth, keyed by peer ID. The broker's flight recorder calls it when
// capturing a slow publication, and /statusz serves it; it reads channel
// lengths only, so it is safe at any time.
func (s *Server) QueueDepths() map[string]int {
	out := make(map[string]int)
	s.peers.Range(func(k, v any) bool {
		out[k.(string)] = len(v.(*peerConn).queue)
		return true
	})
	return out
}

// LinkStatus is one neighbour link's health, served by /statusz.
type LinkStatus struct {
	Peer string `json:"peer"`
	// Up reports a live connection; false covers both an outage mid-redial
	// and a configured neighbour never yet contacted.
	Up bool `json:"up"`
	// QueueDepth is the outbound send queue's current length (0 when down).
	QueueDepth int `json:"queue_depth"`
	// Buffered counts control messages held for the next reconnect.
	Buffered int `json:"buffered,omitempty"`
	// LastRecvUnixNano is the wall-clock time of the last inbound frame
	// (heartbeats included); 0 before first contact.
	LastRecvUnixNano int64 `json:"last_recv_unix_nano,omitempty"`
	// TxBytes counts bytes written to the live connection since it
	// attached (frames only, not the preamble; resets on reconnect).
	TxBytes int64 `json:"tx_bytes,omitempty"`
	// BatchP50 is the connection's median frames-per-flush — 1.0 means
	// batching is doing nothing, larger means syscalls are being amortised.
	BatchP50 float64 `json:"batch_p50,omitempty"`
}

// Links snapshots the health of every configured neighbour link, sorted by
// peer ID.
func (s *Server) Links() []LinkStatus {
	s.linkMu.Lock()
	links := make([]*link, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.linkMu.Unlock()
	out := make([]LinkStatus, 0, len(links))
	seen := make(map[string]bool, len(links))
	for _, l := range links {
		l.mu.Lock()
		st := LinkStatus{Peer: l.id, Up: l.pc != nil, Buffered: len(l.buf)}
		if l.pc != nil {
			st.QueueDepth = len(l.pc.queue)
			st.TxBytes = l.pc.txBytes.Load()
			st.BatchP50 = l.pc.batchP50()
		}
		l.mu.Unlock()
		st.LastRecvUnixNano = l.lastRecv.Load()
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

// link owns one neighbour relationship: the live connection (if any), the
// retry buffer that keeps control messages from being lost while the link is
// down, and the reconnect state machine. The broker's send callback routes
// every neighbour-bound message through deliver; connection loss anywhere
// (write failure, read failure, dead-peer detection) funnels through
// connLost, which starts the reconnect loop.
type link struct {
	s    *Server
	id   string
	addr string

	mu       sync.Mutex
	pc       *peerConn         // nil while the link is down
	buf      []*broker.Message // control messages awaiting a live connection
	dialing  bool              // a reconnect loop is running
	attempts int               // consecutive failed dials this outage

	// lastRecv is the unix-nano time of the last inbound frame, feeding
	// dead-peer detection.
	lastRecv atomic.Int64
}

// deliver sends a message over the link, buffering control messages and
// counting dropped publications while the link is down. Called by the broker
// with its routing lock held, so it must never call back into the broker.
func (l *link) deliver(m *broker.Message) {
	l.mu.Lock()
	pc := l.pc
	l.mu.Unlock()
	if pc != nil {
		if err := pc.write(m); err == nil {
			return
		}
		l.connLost(pc)
	}
	if m.Type == broker.MsgPublish {
		// Publications are not buffered: they are only meaningful promptly,
		// and the paper's delivery guarantee is re-established by resync
		// plus fresh publications. Count the loss instead of hiding it.
		l.s.stats.droppedPubs.Add(1)
		l.ensureDialing(false)
		return
	}
	if m.Type == broker.MsgHeartbeat {
		return // a heartbeat for a dead link is meaningless
	}
	l.mu.Lock()
	if len(l.buf) >= l.s.opts.RetryBuffer {
		// Evict the oldest: later control messages supersede earlier ones
		// more often than not, and the reconnect resync repairs the rest.
		l.buf = append(l.buf[:0:0], l.buf[1:]...)
		l.s.stats.retryOverflow.Add(1)
	}
	l.buf = append(l.buf, m)
	l.mu.Unlock()
	l.s.stats.retryBuffered.Add(1)
	l.ensureDialing(true)
}

// connLost records that a connection died. Only the goroutine that observes
// the currently-attached connection failing starts a reconnect; stale
// connections (already replaced by a newer attach) are just cleaned up.
func (l *link) connLost(pc *peerConn) {
	l.mu.Lock()
	current := l.pc == pc
	if current {
		l.pc = nil
	}
	l.mu.Unlock()
	pc.shutdown()
	l.s.dropPeer(l.id, pc)
	if current {
		l.s.stats.disconnects.Add(1)
		l.ensureDialing(false)
	}
}

// ensureDialing starts the reconnect loop if the link is down and no loop is
// already running. revive re-arms a link whose dial budget was exhausted —
// new control traffic is evidence the neighbour is still wanted.
func (l *link) ensureDialing(revive bool) {
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

// reconnectLoop redials the neighbour with exponential backoff and jitter
// until it succeeds, the dial budget runs out, the server closes, or an
// inbound connection attaches first.
func (l *link) reconnectLoop() {
	defer l.s.wg.Done()
	backoff := l.s.opts.ReconnectMin
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
			return // dialNeighbor attached, flushed, and resynced
		}

		// Full jitter on the upper half of the window keeps two brokers
		// redialling each other from colliding in lockstep.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-l.s.closed:
			l.mu.Lock()
			l.dialing = false
			l.mu.Unlock()
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > l.s.opts.ReconnectMax {
			backoff = l.s.opts.ReconnectMax
		}
	}
}

// attach installs a new connection as the link's active one, replacing (and
// shutting down) any previous connection, and flushes the retry buffer in
// order. The caller must follow up with resyncAfterAttach once it is not
// holding any broker lock.
func (l *link) attach(pc *peerConn) {
	l.lastRecv.Store(time.Now().UnixNano())
	l.mu.Lock()
	old := l.pc
	l.pc = pc
	l.dialing = false
	l.attempts = 0
	buf := l.buf
	l.buf = nil
	// The peers-map update stays under the link lock: two racing attaches
	// (inbound accept vs outbound dial) must not leave the map pointing at
	// the losing connection, or Close would never reach the winner.
	if old != nil && old != pc {
		old.shutdown()
		l.s.dropPeer(l.id, old)
	}
	l.s.addPeer(l.id, pc)
	l.mu.Unlock()
	for i, m := range buf {
		if pc.write(m) != nil {
			// The fresh connection died mid-flush; keep the remainder for
			// the next attach.
			l.mu.Lock()
			l.buf = append(append([]*broker.Message{}, buf[i:]...), l.buf...)
			l.mu.Unlock()
			l.connLost(pc)
			return
		}
		l.s.stats.retryFlushed.Add(1)
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
		l.mu.Lock()
		pc := l.pc
		l.mu.Unlock()
		if pc == nil {
			continue
		}
		if silent := time.Since(time.Unix(0, l.lastRecv.Load())); silent > l.s.opts.DeadAfter {
			l.s.stats.deadPeers.Add(1)
			l.connLost(pc)
			continue
		}
		if err := pc.write(&broker.Message{Type: broker.MsgHeartbeat}); err != nil {
			l.connLost(pc)
			continue
		}
		l.s.stats.heartbeatsSent.Add(1)
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
		{"xbroker_link_disconnects", "Neighbour connections lost.", &s.stats.disconnects},
		{"xbroker_link_heartbeats_sent", "Heartbeat frames sent to neighbours.", &s.stats.heartbeatsSent},
		{"xbroker_link_dead_peers", "Connections dropped by dead-peer detection.", &s.stats.deadPeers},
		{"xbroker_link_dropped_publications", "Publications dropped while a link was down.", &s.stats.droppedPubs},
		{"xbroker_link_retry_buffered", "Control messages buffered during link outages.", &s.stats.retryBuffered},
		{"xbroker_link_retry_flushed", "Buffered control messages delivered on reconnect.", &s.stats.retryFlushed},
		{"xbroker_link_retry_overflow", "Control messages evicted from a full retry buffer.", &s.stats.retryOverflow},
		{"xbroker_link_resyncs", "Control-state resyncs initiated after (re)connects.", &s.stats.resyncs},
		{"xbroker_wire_bad_frames", "Inbound preambles and frames rejected by the wire decoder.", &s.stats.badFrames},
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
		"Vectored flushes toward peers; frames/batches is the mean batch size.",
		func() float64 { return float64(a.batches.Load()) }, "codec", WireBinary)
}
