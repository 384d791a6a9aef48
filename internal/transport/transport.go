// Package transport deploys brokers over real TCP connections — the mode the
// paper ran on its cluster and on PlanetLab. Every connection speaks the
// binary codec of package wirefmt: the dialler opens with a preamble naming
// itself, then both sides stream varint frames with per-link symbol
// dictionaries and batched vectored writes. The wirefmt decoder is the only
// place inbound frames are validated; a frame it rejects costs the
// connection and is counted in HealthStats.BadFrames.
//
// The discrete-event simulator (package sim) is the tool for controlled
// experiments; this package is the deployable counterpart with identical
// broker semantics.
//
// Concurrency: the server no longer serialises all broker handling behind
// one mutex. The broker itself orders its two planes (control messages
// exclusive, publications shared — see package broker); on top of that the
// server runs a bounded worker pool that matches publications from
// concurrent client connections in parallel. Publications are dispatched to
// a worker chosen by the source peer's ID, so the publications of one
// connection are processed in arrival order while different connections
// spread across workers. Outbound messages fan in to one ordered send queue
// per peer connection, drained by a single writer goroutine, so each peer
// observes deliveries in enqueue order.
package transport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wirefmt"
)

// wireAgg accumulates transmit totals across every connection (connections
// come and go; these never reset).
type wireAgg struct {
	bytes, frames, batches atomic.Int64
}

// sendQueueDepth bounds each peer's outbound queue. A full queue blocks the
// matching worker (backpressure toward the producer) rather than growing
// without bound.
const sendQueueDepth = 256

// queuedMsg is one outbound message with its enqueue stamp (zero when flush
// timing is off or the frame is not a publication), so the writer goroutine
// can observe the flush stage: send-queue wait plus encode and write.
type queuedMsg struct {
	m   *broker.Message
	enq time.Time
}

// batchConfig is the resolved batching policy a peerConn writer runs with.
type batchConfig struct {
	interval  time.Duration // linger after the first staged frame; 0 = none
	maxBytes  int           // flush once this many bytes are staged
	maxFrames int           // flush once this many frames are staged
}

// peerConn is one live connection with its ordered send queue. All writes
// funnel through the queue and are encoded by a single writer goroutine, so
// messages reach the peer in enqueue order without a per-write lock. The
// queue channel itself is never closed (many goroutines may be sending);
// the writer is stopped via the stop channel and announces its exit on done.
//
// The writer batches: it stages the message it woke up for, opportunistically
// drains whatever else is already queued (up to maxFrames/maxBytes, lingering
// up to interval when configured), then flushes the whole batch in one
// vectored write. Under load batches grow toward the caps and the per-message
// syscall cost vanishes; an idle link flushes every message immediately, so
// batching adds no latency unless a linger interval explicitly asks for it.
type peerConn struct {
	conn net.Conn
	// enc is owned by the writer goroutine. It writes the net.Conn
	// directly: a wrapper would hide it and downgrade net.Buffers to one
	// syscall per segment, which is the cost batching exists to avoid.
	enc   *wirefmt.Encoder
	queue chan queuedMsg
	flush *metrics.Histogram // flush-stage histogram; nil disables timing
	batch batchConfig
	agg   *wireAgg      // server-wide tx aggregates
	stop  chan struct{} // signalled by shutdown
	done  chan struct{} // closed when the writer exits
	once  sync.Once

	// txBytes counts bytes flushed since attach (preamble excluded);
	// batchCounts is a log2 histogram of frames-per-flush (bucket i covers
	// (2^(i-1), 2^i]); batches is its total. Read by LinkStatus.
	txBytes     atomic.Int64
	batchCounts [9]atomic.Int64
	batches     atomic.Int64
}

// newPeerConn starts the writer goroutine of a connection whose preamble,
// if this side dialled, enc has already written.
func (s *Server) newPeerConn(conn net.Conn, enc *wirefmt.Encoder) *peerConn {
	p := &peerConn{
		conn:  conn,
		enc:   enc,
		queue: make(chan queuedMsg, sendQueueDepth),
		flush: s.stageFlush,
		batch: s.batchCfg,
		agg:   &s.wireTx,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.runWriter()
	return p
}

// runWriter is the connection's single writer goroutine: stage, drain, flush.
func (p *peerConn) runWriter() {
	defer close(p.done)
	enqs := make([]time.Time, 0, 16)
	var timer *time.Timer
	for {
		var qm queuedMsg
		select {
		case <-p.stop:
			return
		case qm = <-p.queue:
		}
		enqs = enqs[:0]
		if err := p.enc.Queue(qm.m); err != nil {
			p.conn.Close() // unblocks the connection's read loop
			return
		}
		if !qm.enq.IsZero() {
			enqs = append(enqs, qm.enq)
		}
		frames := 1
		var timerC <-chan time.Time
		if p.batch.interval > 0 {
			if timer == nil {
				timer = time.NewTimer(p.batch.interval)
			} else {
				timer.Reset(p.batch.interval)
			}
			timerC = timer.C
		}
	fill:
		for frames < p.batch.maxFrames && p.enc.Pending() < p.batch.maxBytes {
			if timerC == nil {
				select {
				case <-p.stop:
					return
				case qm = <-p.queue:
				default:
					break fill
				}
			} else {
				select {
				case <-p.stop:
					return
				case qm = <-p.queue:
				case <-timerC:
					timerC = nil
					break fill
				}
			}
			if err := p.enc.Queue(qm.m); err != nil {
				p.conn.Close()
				return
			}
			if !qm.enq.IsZero() {
				enqs = append(enqs, qm.enq)
			}
			frames++
		}
		if timerC != nil && !timer.Stop() {
			<-timer.C
		}
		n, err := p.enc.Flush()
		if err != nil {
			p.conn.Close()
			return
		}
		p.recordBatch(frames)
		p.txBytes.Add(n)
		p.agg.bytes.Add(n)
		p.agg.frames.Add(int64(frames))
		p.agg.batches.Add(1)
		if p.flush != nil && len(enqs) > 0 {
			now := time.Now()
			for _, e := range enqs {
				p.flush.Observe(now.Sub(e).Seconds())
			}
		}
	}
}

// recordBatch files one flush's frame count into the log2 histogram.
func (p *peerConn) recordBatch(frames int) {
	i := bits.Len(uint(frames - 1)) // 1→0, 2→1, 3..4→2, ...
	if i >= len(p.batchCounts) {
		i = len(p.batchCounts) - 1
	}
	p.batchCounts[i].Add(1)
	p.batches.Add(1)
}

// batchP50 returns the median frames-per-flush (bucket upper bound), or 0
// before the first flush.
func (p *peerConn) batchP50() float64 {
	total := p.batches.Load()
	if total == 0 {
		return 0
	}
	half := (total + 1) / 2
	var cum int64
	for i := range p.batchCounts {
		if cum += p.batchCounts[i].Load(); cum >= half {
			return float64(uint(1) << i)
		}
	}
	return float64(uint(1) << (len(p.batchCounts) - 1))
}

// write enqueues a message for the peer. It reports an error when the
// writer has already shut down (encode failure or connection close).
func (p *peerConn) write(m *broker.Message) error {
	qm := queuedMsg{m: m}
	if p.flush != nil && m.Type == broker.MsgPublish {
		qm.enq = time.Now()
	}
	select {
	case <-p.done:
		return errors.New("transport: peer writer closed")
	case <-p.stop:
		return errors.New("transport: peer shutting down")
	case p.queue <- qm:
		return nil
	}
}

// shutdown closes the connection and stops the writer goroutine.
func (p *peerConn) shutdown() {
	p.once.Do(func() { close(p.stop) })
	p.conn.Close()
}

// pubTask is one publication awaiting matching, tagged with its source.
type pubTask struct {
	m    *broker.Message
	from string
}

// Server hosts one broker behind a TCP listener.
type Server struct {
	cfg       broker.Config
	neighbors map[string]string // broker ID -> address
	opts      Options

	b     *broker.Broker
	ln    net.Listener
	peers sync.Map // peer ID -> *peerConn

	// links holds the self-healing state of each neighbour relationship
	// (retry buffer, reconnect loop, heartbeat liveness). Created lazily on
	// first contact because neighbour addresses may be filled in after
	// construction (listeners must bind before addresses exist).
	linkMu sync.Mutex
	links  map[string]*link

	// stats counts self-healing events; see Health.
	stats healthStats

	// pubQueues feeds the matching worker pool; queue index is chosen by
	// hashing the source peer ID, preserving per-connection order.
	pubQueues []chan pubTask

	// InFlight gauges publications currently queued or being matched; its
	// high-water mark shows how deep the pool has been driven.
	InFlight metrics.Gauge

	// reg mirrors cfg.Metrics: when non-nil the server registers its own
	// transport-level instruments (pool occupancy, per-peer send-queue
	// depths) next to the broker's.
	reg *metrics.Registry

	// stageDecode and stageFlush are the transport-measured spans of the
	// publish path (xbroker_stage_seconds{stage="decode"|"flush"}): the
	// broker cannot see wire read + decode time or the writer goroutine's
	// queue-drain + encode time, so the transport observes them. Nil without
	// a registry.
	stageDecode, stageFlush *metrics.Histogram

	// batchCfg is the resolved send-batching policy, shared by every
	// peerConn writer; wireTx aggregates transmit totals for the
	// xbroker_wire_* metrics.
	batchCfg batchConfig
	wireTx   wireAgg

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// NewServer creates a broker server. neighbors maps neighbouring broker IDs
// to their TCP addresses; they are registered as overlay links immediately
// and dialled lazily. workers sizes the publication-matching pool; 0 means
// GOMAXPROCS.
func NewServer(cfg broker.Config, neighbors map[string]string) *Server {
	return NewServerWorkers(cfg, neighbors, 0)
}

// NewServerWorkers is NewServer with an explicit worker-pool size.
func NewServerWorkers(cfg broker.Config, neighbors map[string]string, workers int) *Server {
	return NewServerOptions(cfg, neighbors, Options{Workers: workers})
}

// NewServerOptions is NewServer with explicit self-healing options. It
// panics on an Options.Wire other than "" or WireBinary.
func NewServerOptions(cfg broker.Config, neighbors map[string]string, opts Options) *Server {
	if opts.Wire != "" && opts.Wire != WireBinary {
		panic(fmt.Sprintf("transport: unknown wire codec %q (only %q remains)", opts.Wire, WireBinary))
	}
	opts = opts.withDefaults()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:       cfg,
		neighbors: neighbors,
		opts:      opts,
		closed:    make(chan struct{}),
		pubQueues: make([]chan pubTask, workers),
		links:     make(map[string]*link, len(neighbors)),
		batchCfg: batchConfig{
			interval:  opts.FlushInterval,
			maxBytes:  opts.MaxBatchBytes,
			maxFrames: opts.MaxBatchFrames,
		},
	}
	// The broker's flight recorder snapshots per-peer send-queue depths at
	// capture time; install the callback before the broker copies its config.
	if cfg.QueueDepths == nil {
		cfg.QueueDepths = s.QueueDepths
		s.cfg = cfg
	}
	s.b = broker.New(cfg, s.send)
	for id := range neighbors {
		s.b.AddNeighbor(id)
	}
	// Durable subscriptions recovered from the publication log re-register
	// through the normal subscribe path, which forwards upstream — hence
	// after the neighbour links exist and before any traffic.
	if cfg.Durable != nil {
		s.b.RecoverDurable()
	}
	for i := range s.pubQueues {
		s.pubQueues[i] = make(chan pubTask, sendQueueDepth)
	}
	if cfg.Metrics != nil {
		s.reg = cfg.Metrics
		const stageHelp = "Publish-path stage latency in seconds, by pipeline stage " +
			"(decode, queue, match, filter, enqueue, flush — see DESIGN.md §5f)."
		s.stageDecode = s.reg.Histogram("xbroker_stage_seconds", stageHelp,
			metrics.DefBuckets, "stage", trace.StageDecode)
		s.stageFlush = s.reg.Histogram("xbroker_stage_seconds", stageHelp,
			metrics.DefBuckets, "stage", trace.StageFlush)
		s.reg.GaugeFunc("xbroker_pool_in_flight",
			"Publications queued or being matched in the worker pool.",
			func() float64 { return float64(s.InFlight.Load()) })
		s.reg.GaugeFunc("xbroker_pool_in_flight_high",
			"High-water mark of worker-pool occupancy.",
			func() float64 { return float64(s.InFlight.High()) })
		s.reg.GaugeFunc("xbroker_pool_workers",
			"Size of the publication-matching worker pool.",
			func() float64 { return float64(len(s.pubQueues)) })
		s.registerHealthMetrics()
	}
	return s
}

// Broker exposes the underlying router for configuration before Listen. The
// broker is itself safe for concurrent use once the server is running.
func (s *Server) Broker() *broker.Broker { return s.b }

// PRTSize returns the broker's subscription-table size.
func (s *Server) PRTSize() int { return s.b.PRTSize() }

// SRTSize returns the broker's advertisement-table size.
func (s *Server) SRTSize() int { return s.b.SRTSize() }

// Stats returns the broker's counters.
func (s *Server) Stats() broker.Stats { return s.b.Stats() }

// Listen binds the server to addr (use "127.0.0.1:0" for tests), starts the
// matching worker pool and the accept loop. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.ln = ln
	for _, q := range s.pubQueues {
		s.wg.Add(1)
		go s.matchLoop(q)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the server and drops all connections.
func (s *Server) Close() {
	s.closeMu.Do(func() { close(s.closed) })
	if s.ln != nil {
		s.ln.Close()
	}
	s.peers.Range(func(_, v any) bool {
		v.(*peerConn).shutdown()
		return true
	})
	s.wg.Wait()
}

// matchLoop is one worker of the publication-matching pool.
func (s *Server) matchLoop(q chan pubTask) {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case t := <-q:
			s.matchOne(t)
		}
	}
}

// matchOne matches one publication. A frame crafted to make matching panic
// (decoded off the wire from a hostile or corrupt peer) must cost that
// message, not the worker or the process; broker locks are deferred, so the
// unwind releases them.
func (s *Server) matchOne(t pubTask) {
	defer s.InFlight.Add(-1)
	defer func() { recover() }()
	s.b.HandleMessage(t.m, t.from)
}

// dispatchPublish hands a publication to the worker owning the source peer.
func (s *Server) dispatchPublish(m *broker.Message, from string) {
	h := fnv.New32a()
	h.Write([]byte(from))
	q := s.pubQueues[int(h.Sum32())%len(s.pubQueues)]
	s.InFlight.Add(1)
	select {
	case <-s.closed:
		s.InFlight.Add(-1)
	case q <- pubTask{m: m, from: from}:
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			return
		}
		if s.opts.ConnWrap != nil {
			conn = s.opts.ConnWrap(conn)
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one inbound connection: the peer names itself in the
// preamble, and frames follow; nothing is sent back until the broker has
// something to say. Neighbour connections attach to the neighbour's link
// (with a control-state resync); client connections go straight to the
// peers map.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	dec, tr := s.newDecoder(conn)
	id, err := dec.Hello()
	if err != nil {
		s.countBadFrame(err)
		return
	}
	pc := s.newPeerConn(conn, wirefmt.NewEncoder(conn, wirefmt.DefaultLimits))
	if l := s.linkFor(id); l != nil {
		l.attach(pc)
		l.resyncAfterAttach()
		s.readLoop(dec, tr, id, l)
		l.connLost(pc)
		return
	}
	s.addPeer(id, pc)
	defer s.dropPeer(id, pc)
	s.b.AddClient(id)
	s.readLoop(dec, tr, id, nil)
}

// newDecoder builds a connection's frame decoder. When decode-stage timing
// is on (a metrics registry or a flight recorder is attached) it reads
// through a timedReader, which it also returns; otherwise tr is nil.
func (s *Server) newDecoder(conn net.Conn) (dec *wirefmt.Decoder, tr *timedReader) {
	if s.stageDecode == nil && s.cfg.SlowLog == nil {
		return wirefmt.NewDecoder(conn, wirefmt.DefaultLimits), nil
	}
	tr = &timedReader{conn: conn}
	return wirefmt.NewDecoder(tr, wirefmt.DefaultLimits), tr
}

// countBadFrame counts a decode error in BadFrames unless it only says the
// connection ended: a protocol violation (bad preamble, hostile varint,
// unknown dictionary id, out-of-bound value) is a bad frame; a peer merely
// hanging up is not.
func (s *Server) countBadFrame(err error) {
	var ne net.Error
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
		!errors.Is(err, net.ErrClosed) && !errors.As(err, &ne) {
		s.stats.badFrames.Add(1)
	}
}

// timedReader wraps a connection so the read loop can time the decode stage
// without counting idle socket wait: it stamps the first Read of each frame
// that actually returns bytes — when data for the frame arrived — rather
// than when the read loop started blocking. Reads happen synchronously
// inside the decoder, so no locking is needed.
type timedReader struct {
	conn  net.Conn
	at    time.Time
	armed bool
}

func (r *timedReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if !r.armed && n > 0 {
		r.at = time.Now()
		r.armed = true
	}
	return n, err
}

// frameStart returns when the current frame's bytes first arrived, falling
// back to the decode call time for frames served entirely from the
// decoder's internal buffer, and re-arms the reader for the next frame.
func (r *timedReader) frameStart(fallback time.Time) time.Time {
	if !r.armed {
		return fallback
	}
	r.armed = false
	return r.at
}

// addPeer publishes a live connection and its queue-depth gauge. The gauge
// reads len() of the peer's channel at exposition time — no bookkeeping on
// the send path. Reconnections replace the previous gauge callback.
func (s *Server) addPeer(id string, pc *peerConn) {
	s.peers.Store(id, pc)
	if s.reg != nil {
		s.reg.GaugeFunc("xbroker_send_queue_depth",
			"Outbound messages queued toward a peer connection.",
			func() float64 { return float64(len(pc.queue)) }, "peer", id)
	}
	// A connection attached while Close is sweeping the peers map would be
	// missed by the sweep and its read loop would outlive the server. The
	// store above and this check bracket Close's close(closed)+Range pair:
	// either the sweep sees the entry, or this check sees closed.
	select {
	case <-s.closed:
		pc.shutdown()
	default:
	}
}

// readLoop decodes frames from one connection. Control messages are handled
// inline (the broker serialises them on its exclusive lock), so a peer's
// subscribe is fully applied before its next frame is read; publications go
// to the worker pool. Ordering guarantee per connection: control messages
// stay ordered among themselves and publications among themselves; a
// control message may only overtake this connection's own still-queued
// publications (concurrent by design — see DESIGN.md "Concurrency model").
//
// Heartbeat frames refresh the link's liveness clock and stop here — they
// never reach the broker. Every frame has passed the decoder's wire bounds;
// one that still makes the broker choke must cost this connection, not the
// process, hence the recover.
func (s *Server) readLoop(dec *wirefmt.Decoder, tr *timedReader, id string, l *link) {
	defer func() { recover() }()
	for {
		var m broker.Message
		var decodeStart time.Time
		if tr != nil {
			decodeStart = time.Now()
		}
		if err := dec.Decode(&m); err != nil {
			s.countBadFrame(err)
			return
		}
		var arrived time.Time
		if tr != nil {
			// Consumed for every frame so a control frame's arrival stamp
			// never leaks into the next publication's decode span.
			arrived = tr.frameStart(decodeStart)
		}
		if l != nil {
			l.lastRecv.Store(time.Now().UnixNano())
		}
		if m.Type == broker.MsgHeartbeat {
			continue
		}
		if m.Type == broker.MsgPublish {
			if tr != nil {
				now := time.Now()
				d := now.Sub(arrived)
				if d < 0 {
					d = 0
				}
				if s.stageDecode != nil {
					s.stageDecode.Observe(d.Seconds())
				}
				m.SetArrival(d, now)
			}
			s.dispatchPublish(&m, id)
			continue
		}
		s.b.HandleMessage(&m, id)
	}
}

// dropPeer removes a peer mapping (and its queue gauge) if it still refers
// to this connection.
func (s *Server) dropPeer(id string, pc *peerConn) {
	if cur, ok := s.peers.Load(id); ok && cur == pc {
		s.peers.Delete(id)
		if s.reg != nil {
			s.reg.Unregister("xbroker_send_queue_depth", "peer", id)
		}
	}
	pc.shutdown()
}

// send delivers a message to a peer. It is called by the broker with its
// lock held (shared for publications), so it must not call back into the
// broker; enqueueing on a send queue or retry buffer is all it does.
// Neighbour traffic goes through the neighbour's link, which buffers control
// messages across outages instead of dropping them; client traffic is
// best-effort on the live connection (a gone client is gone).
func (s *Server) send(to string, m *broker.Message) {
	if l := s.linkFor(to); l != nil {
		l.deliver(m)
		return
	}
	if pc, ok := s.peers.Load(to); ok {
		if err := pc.(*peerConn).write(m); err != nil {
			s.dropPeer(to, pc.(*peerConn))
		}
	}
}

// linkFor returns the link for a neighbour ID (creating it on first
// contact), or nil when the ID is not a configured neighbour. Link creation
// also starts the neighbour's heartbeat loop when heartbeats are enabled.
func (s *Server) linkFor(id string) *link {
	s.linkMu.Lock()
	defer s.linkMu.Unlock()
	if l := s.links[id]; l != nil {
		return l
	}
	addr, ok := s.neighbors[id]
	if !ok {
		return nil
	}
	l := &link{s: s, id: id, addr: addr}
	s.links[id] = l
	if s.opts.Heartbeat > 0 {
		select {
		case <-s.closed:
		default:
			s.wg.Add(1)
			go l.heartbeatLoop()
		}
	}
	return l
}

// dialNeighbor makes one dial attempt for a down link. On success the new
// connection is attached (flushing the retry buffer), the neighbour is
// resynced, and a read loop is started.
func (s *Server) dialNeighbor(l *link) error {
	conn, err := net.DialTimeout("tcp", l.addr, s.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("transport: dial %s (%s): %w", l.id, l.addr, err)
	}
	if s.opts.ConnWrap != nil {
		conn = s.opts.ConnWrap(conn)
	}
	// The preamble is written before the peerConn writer exists, so it is
	// first on the wire.
	enc := wirefmt.NewEncoder(conn, wirefmt.DefaultLimits)
	if err := enc.Hello(s.cfg.ID); err != nil {
		conn.Close()
		return fmt.Errorf("transport: hello to %s: %w", l.id, err)
	}
	pc := s.newPeerConn(conn, enc)
	l.attach(pc)
	l.resyncAfterAttach()
	// The dialled neighbour speaks back on the same connection.
	dec, tr := s.newDecoder(conn)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		s.readLoop(dec, tr, l.id, l)
		l.connLost(pc)
	}()
	return nil
}

// ClientOptions tunes a client's reconnect behaviour. The zero value keeps
// the historical semantics: the connection dropping closes Deliveries.
type ClientOptions struct {
	// Reconnect makes the client redial its edge broker when the
	// connection drops, replay its recorded control state (live
	// subscriptions and advertisements), and keep the Deliveries channel
	// open across the swap.
	Reconnect bool
	// ReconnectMin and ReconnectMax bound the redial backoff (defaults
	// 50ms and 2s).
	ReconnectMin, ReconnectMax time.Duration
	// DialBudget caps consecutive failed redials per outage; once spent
	// the client gives up and closes Deliveries. 0 means unlimited.
	DialBudget int
	// Durable names a durable subscription on the edge broker. When set,
	// subscriptions sent through this client register under that name:
	// matched publications are sequenced and logged broker-side, and on
	// every (re)attach the broker replays the gap above the acknowledged
	// cursor. Deliveries then carry Durable and Seq, and the client (or
	// AutoAck) acknowledges them to advance the cursor.
	Durable string
	// AutoAck acknowledges each durable delivery as soon as it has been
	// handed to the Deliveries channel. Leave false to ack explicitly via
	// Ack after processing — the at-least-once window is then bounded by
	// the application, not the channel.
	AutoAck bool
	// OnAck, when set, observes every acknowledgement this client sends
	// (auto or explicit) after it has been queued to the broker.
	OnAck func(seq uint64)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.ReconnectMin <= 0 {
		o.ReconnectMin = 50 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 2 * time.Second
	}
	return o
}

// Client is a publisher/subscriber endpoint over TCP.
type Client struct {
	ID string

	addr string
	opts ClientOptions

	mu   sync.Mutex
	conn net.Conn
	enc  *wirefmt.Encoder
	// record holds the client's live control state (subscriptions and
	// advertisements, withdrawals removed) — what a reconnect replays so
	// the restarted or recovered edge broker serves the client again.
	record []*broker.Message

	// Reconnects counts successful redials — observability for callers and
	// tests.
	Reconnects atomic.Int64

	// Deliveries receives publications matching the client's
	// subscriptions. The channel is closed when the connection drops and
	// reconnection is disabled, exhausted, or the client is closed.
	Deliveries chan *broker.Message

	closed    chan struct{}
	closeOnce sync.Once
}

// Dial connects a client to its edge broker. The connection dropping closes
// Deliveries; use DialOptions for a self-healing client.
func Dial(addr, id string) (*Client, error) {
	return DialOptions(addr, id, ClientOptions{})
}

// DialOptions is Dial with explicit reconnect options.
func DialOptions(addr, id string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	conn, enc, dec, err := clientHandshake(addr, id)
	if err != nil {
		return nil, err
	}
	c := &Client{
		ID:         id,
		addr:       addr,
		opts:       opts,
		conn:       conn,
		enc:        enc,
		Deliveries: make(chan *broker.Message, 1024),
		closed:     make(chan struct{}),
	}
	go c.readLoop(conn, dec)
	return c, nil
}

// clientHandshake dials the edge broker and writes the preamble, returning
// the connection with its frame encoder and decoder.
func clientHandshake(addr, id string) (net.Conn, *wirefmt.Encoder, *wirefmt.Decoder, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("transport: client dial %s: %w", addr, err)
	}
	enc := wirefmt.NewEncoder(conn, wirefmt.DefaultLimits)
	if err := enc.Hello(id); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("transport: client hello: %w", err)
	}
	return conn, enc, wirefmt.NewDecoder(conn, wirefmt.DefaultLimits), nil
}

func (c *Client) readLoop(conn net.Conn, dec *wirefmt.Decoder) {
	for {
		for {
			var m broker.Message
			if err := dec.Decode(&m); err != nil {
				goto redial
			}
			c.Deliveries <- &m
			if c.opts.AutoAck && m.Type == broker.MsgPublish && m.Durable != "" {
				c.Ack(m.Seq)
			}
		}
	redial:
		conn.Close()
		next, ndec := c.redial()
		if next == nil {
			close(c.Deliveries)
			return
		}
		conn, dec = next, ndec
	}
}

// redial re-establishes the connection with exponential backoff, replaying
// the recorded control state once connected. It returns nils when
// reconnection is disabled, the client was closed, or the dial budget ran
// out.
func (c *Client) redial() (net.Conn, *wirefmt.Decoder) {
	if !c.opts.Reconnect {
		return nil, nil
	}
	backoff := c.opts.ReconnectMin
	attempts := 0
	for {
		select {
		case <-c.closed:
			return nil, nil
		default:
		}
		conn, enc, dec, err := clientHandshake(c.addr, c.ID)
		if err == nil {
			// Swap and replay under the send lock so no Send interleaves
			// with the replayed record on the fresh stream.
			c.mu.Lock()
			c.conn, c.enc = conn, enc
			replayed := true
			for _, m := range c.record {
				if enc.Encode(m) != nil {
					replayed = false
					break
				}
			}
			c.mu.Unlock()
			if replayed {
				c.Reconnects.Add(1)
				return conn, dec
			}
			conn.Close()
		}
		attempts++
		if b := c.opts.DialBudget; b > 0 && attempts >= b {
			return nil, nil
		}
		select {
		case <-c.closed:
			return nil, nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > c.opts.ReconnectMax {
			backoff = c.opts.ReconnectMax
		}
	}
}

// recordControl maintains the replayable control state under c.mu:
// withdrawals cancel the matching prior message instead of being recorded.
// Replaying a recorded durable subscription doubles as reattach: the broker
// responds with the unacknowledged gap bracketed in replay markers.
func (c *Client) recordControl(m *broker.Message) {
	switch m.Type {
	case broker.MsgSubscribe, broker.MsgAdvertise, broker.MsgSubscribeDurable:
		c.record = append(c.record, m)
	case broker.MsgUnsubscribe:
		c.dropRecord(func(r *broker.Message) bool {
			return r.Type == broker.MsgSubscribe && r.XPE.Key() == m.XPE.Key()
		})
	case broker.MsgUnadvertise:
		c.dropRecord(func(r *broker.Message) bool {
			return r.Type == broker.MsgAdvertise && r.AdvID == m.AdvID
		})
	}
}

func (c *Client) dropRecord(match func(*broker.Message) bool) {
	for i, r := range c.record {
		if match(r) {
			c.record = append(c.record[:i], c.record[i+1:]...)
			return
		}
	}
}

// Send submits any message to the edge broker. With reconnection enabled, a
// control message that hits a dead connection is not an error: it is
// recorded and will be replayed when the redial succeeds. Publications are
// never deferred — the caller learns the connection is down and decides.
func (c *Client) Send(m *broker.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Type == broker.MsgPublish && m.Stamp == 0 {
		m.Stamp = time.Now().UnixNano()
	}
	// A durable client's subscriptions register under its durable name.
	if c.opts.Durable != "" && m.Type == broker.MsgSubscribe {
		m.Type = broker.MsgSubscribeDurable
		m.Durable = c.opts.Durable
	}
	if c.opts.Reconnect {
		c.recordControl(m)
	}
	if err := c.enc.Encode(m); err != nil {
		if c.opts.Reconnect && m.Type != broker.MsgPublish {
			return nil
		}
		return fmt.Errorf("transport: send: %w", err)
	}
	return nil
}

// Ack acknowledges every durable delivery up to and including seq,
// advancing the broker-side cursor. With reconnection enabled an ack that
// hits a dead connection is silently dropped — the cursor simply advances
// less far and the next reattach replays a little more, which
// at-least-once delivery permits.
func (c *Client) Ack(seq uint64) error {
	if c.opts.Durable == "" {
		return errors.New("transport: Ack on a non-durable client")
	}
	err := c.Send(&broker.Message{Type: broker.MsgAck, Durable: c.opts.Durable, Seq: seq})
	if c.opts.OnAck != nil {
		c.opts.OnAck(seq)
	}
	return err
}

// Close drops the connection and stops any reconnection.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		c.conn.Close()
		c.mu.Unlock()
	})
}

// WaitDelivery receives one delivery with a timeout.
func (c *Client) WaitDelivery(timeout time.Duration) (*broker.Message, error) {
	select {
	case m, ok := <-c.Deliveries:
		if !ok {
			return nil, errors.New("transport: connection closed")
		}
		return m, nil
	case <-time.After(timeout):
		return nil, errors.New("transport: delivery timeout")
	}
}
