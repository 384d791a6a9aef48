// Package transport deploys brokers over real TCP connections — the mode the
// paper ran on its cluster and on PlanetLab. Every connection speaks the
// binary codec of package wirefmt: the dialler opens with a preamble naming
// itself, then both sides stream varint frames with per-link symbol
// dictionaries and batched vectored writes. The wirefmt decoder is the only
// place inbound frames are validated; a frame it rejects costs the
// connection and is counted in HealthStats.BadFrames.
//
// The server keeps one peer table, as the broker routes by one kind of last
// hop: every connection, a client's or a neighbour's, attaches to the link
// of the id its preamble names, and every message for a peer is delivered
// through that link. A neighbour's link also redials, resyncs and sends
// heartbeats; a client's has no address and does none of these.
//
// The discrete-event simulator (package sim) is the tool for controlled
// experiments; this package is the deployable counterpart with identical
// broker semantics.
//
// Concurrency: the broker orders its two planes itself (control messages
// exclusive, publications shared — see package broker). Each connection has
// one read loop, which decodes a frame and hands it to the broker before it
// reads the next, so one connection's frames are handled in strict arrival
// order while different connections match in parallel. Outbound messages fan
// in to one ordered send queue per peer connection, drained by a single
// writer goroutine, so each peer observes deliveries in enqueue order.
//
// Message lifetime: a publication is decoded into a message from the
// server's pool, and the read loop is its first holder; it drops that hold
// when the broker returns. Each enqueue on a peer send queue adds a hold,
// which the writer drops after the flush that wrote the frame. The last
// holder returns the message to the pool (see broker.Lifetime). Control
// frames are decoded into messages that leave the pool: the broker keeps
// their payloads.
package transport

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
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
// read loop matching the publication (backpressure toward the producer)
// rather than growing without bound.
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
	maxBytes  int // flush once this many bytes are staged
	maxFrames int // flush once this many frames are staged
}

// peerConn is one live connection with its ordered send queue. All writes
// funnel through the queue and are encoded by a single writer goroutine, so
// messages reach the peer in enqueue order without a per-write lock. The
// queue channel itself is never closed (many goroutines may be sending);
// the writer is stopped via the stop channel and announces its exit on done.
//
// The writer batches: it stages the message it woke up for, opportunistically
// drains whatever else is already queued (up to maxFrames/maxBytes), then
// flushes the whole batch in one vectored write. Under load batches grow
// toward the caps and the per-message syscall cost vanishes; an idle link
// flushes every message immediately, so batching adds no latency.
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
	// staged are the messages taken off the queue since the last flush. The
	// encoder references a raw body over its inline threshold as a vector
	// segment until the flush writes it, so their holds are dropped after the
	// flush, or when the writer exits with a batch staged.
	staged := make([]queuedMsg, 0, 16)
	defer func() { release(staged) }()
	for {
		var qm queuedMsg
		select {
		case <-p.stop:
			return
		case qm = <-p.queue:
		}
		staged = append(staged, qm)
		if err := p.enc.Queue(qm.m); err != nil {
			p.conn.Close() // unblocks the connection's read loop
			return
		}
	fill:
		for len(staged) < p.batch.maxFrames && p.enc.Pending() < p.batch.maxBytes {
			select {
			case <-p.stop:
				return
			case qm = <-p.queue:
			default:
				break fill
			}
			staged = append(staged, qm)
			if err := p.enc.Queue(qm.m); err != nil {
				p.conn.Close()
				return
			}
		}
		n, err := p.enc.Flush()
		if err != nil {
			p.conn.Close()
			return
		}
		if p.flush != nil {
			now := time.Now()
			for _, qm := range staged {
				if !qm.enq.IsZero() {
					p.flush.Observe(now.Sub(qm.enq).Seconds())
				}
			}
		}
		frames := len(staged)
		staged = release(staged)
		p.recordBatch(frames)
		p.txBytes.Add(n)
		p.agg.bytes.Add(n)
		p.agg.frames.Add(int64(frames))
		p.agg.batches.Add(1)
	}
}

// release drops the writer's hold on each staged message and returns the
// batch emptied.
func release(staged []queuedMsg) []queuedMsg {
	for i := range staged {
		staged[i].m.Release()
		staged[i] = queuedMsg{}
	}
	return staged[:0]
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

// write enqueues a message for the peer, adding a hold on it that the
// writer drops after the flush. It reports an error, holding nothing, when
// the writer has already shut down (encode failure or connection close). A
// message that lands in the queue of a writer exiting meanwhile keeps its
// hold and is left to the garbage collector: it is never recycled.
func (p *peerConn) write(m *broker.Message) error {
	qm := queuedMsg{m: m}
	if p.flush != nil && m.Type == broker.MsgPublish {
		qm.enq = time.Now()
	}
	m.Hold()
	select {
	case <-p.done:
		m.Release()
		return errors.New("transport: peer writer closed")
	case <-p.stop:
		m.Release()
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

// Server hosts one broker behind a TCP listener.
type Server struct {
	cfg       broker.Config
	neighbors map[string]string // broker ID -> address
	opts      Options

	b  *broker.Broker
	ln net.Listener

	// links is the peer table: one link per peer ID, client or neighbour,
	// holding its live connection and, for a neighbour, the self-healing
	// state (reconnect loop, heartbeat liveness). Created lazily on first
	// contact because neighbour addresses may be filled in after
	// construction (listeners must bind before addresses exist).
	linkMu sync.Mutex
	links  map[string]*link

	// stats counts self-healing events; see Health.
	stats healthStats

	// msgs pools the messages publications are decoded into, as
	// *broker.Lifetime; recycle, built once, returns one when its last
	// holder releases it.
	msgs    sync.Pool
	recycle func(*broker.Lifetime)

	// InFlight gauges the publications read loops are matching, one at
	// most per connection. It stays only because cmd/xload reads its
	// high-water mark.
	InFlight metrics.Gauge

	// reg mirrors cfg.Metrics: when non-nil the server registers its own
	// transport-level instruments (per-peer send-queue depths, self-healing
	// counters) next to the broker's.
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

// NewServer creates a broker server with default options. neighbors maps
// neighbouring broker IDs to their TCP addresses; they are registered as
// overlay links immediately and dialled lazily.
func NewServer(cfg broker.Config, neighbors map[string]string) *Server {
	return NewServerOptions(cfg, neighbors, Options{})
}

// NewServerOptions is NewServer with explicit self-healing options. It
// panics on an Options.Wire other than "" or WireBinary.
func NewServerOptions(cfg broker.Config, neighbors map[string]string, opts Options) *Server {
	if opts.Wire != "" && opts.Wire != WireBinary {
		panic(fmt.Sprintf("transport: unknown wire codec %q (only %q remains)", opts.Wire, WireBinary))
	}
	opts = opts.withDefaults()
	s := &Server{
		cfg:       cfg,
		neighbors: neighbors,
		opts:      opts,
		closed:    make(chan struct{}),
		links:     make(map[string]*link, len(neighbors)),
		batchCfg: batchConfig{
			maxBytes:  opts.MaxBatchBytes,
			maxFrames: opts.MaxBatchFrames,
		},
	}
	s.recycle = func(l *broker.Lifetime) { s.msgs.Put(l) }
	s.msgs.New = func() any { return broker.NewLifetime(s.recycle) }
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
	if cfg.Metrics != nil {
		s.reg = cfg.Metrics
		const stageHelp = "Publish-path stage latency in seconds, by pipeline stage " +
			"(decode, match, filter, enqueue, flush — see DESIGN.md §5f)."
		s.stageDecode = s.reg.Histogram("xbroker_stage_seconds", stageHelp,
			metrics.DefBuckets, "stage", trace.StageDecode)
		s.stageFlush = s.reg.Histogram("xbroker_stage_seconds", stageHelp,
			metrics.DefBuckets, "stage", trace.StageFlush)
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

// Listen binds the server to addr (use "127.0.0.1:0" for tests) and starts
// the accept loop. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve starts the accept loop on ln.
func (s *Server) serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// Close stops the server and drops all connections.
func (s *Server) Close() {
	s.closeMu.Do(func() { close(s.closed) })
	if s.ln != nil {
		s.ln.Close()
	}
	for _, l := range s.allLinks() {
		if pc := l.conn(); pc != nil {
			pc.shutdown()
		}
	}
	s.wg.Wait()
}

// acceptLoop serves inbound connections until Close. A failed Accept — a
// transient EMFILE or ECONNABORTED — is retried after a short backoff that
// grows from 5ms up to a second, so the server never silently stops
// accepting.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	wait := backoff{min: 5 * time.Millisecond, max: time.Second}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !wait.sleep(s.closed) {
				return
			}
			continue
		}
		wait.window = 0
		if s.opts.ConnWrap != nil {
			conn = s.opts.ConnWrap(conn)
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn handles one inbound connection: the peer names itself in the
// preamble, and frames follow; nothing is sent back until the broker has
// something to say. The connection attaches to the peer's link; a neighbour
// is then resynced, a client registered with the broker.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	// Until the preamble attaches it to a link, Close's sweep cannot reach
	// the connection, so it is closed here when the server closes.
	helloDone := make(chan struct{})
	go func() {
		select {
		case <-s.closed:
			conn.Close()
		case <-helloDone:
		}
	}()
	dec, tr := s.newDecoder(conn)
	id, err := dec.Hello()
	close(helloDone)
	if err != nil {
		s.countBadFrame(err)
		return
	}
	l := s.linkFor(id)
	pc := s.newPeerConn(conn, wirefmt.NewEncoder(conn, wirefmt.DefaultLimits))
	l.attach(pc)
	if l.addr == "" {
		s.b.AddClient(id)
	} else {
		l.resyncAfterAttach()
	}
	s.readLoop(dec, tr, l)
	l.connLost(pc)
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

// readLoop decodes frames from one connection and hands each to the broker
// before it reads the next, so the connection's frames are handled in strict
// arrival order: a subscribe is applied before the publication that follows
// it, and no control message overtakes an earlier publication. Control
// messages take the broker's exclusive lock; a publication is matched right
// here, on the connection's own goroutine (see DESIGN.md §5a).
//
// Every frame refreshes the link's liveness clock. Heartbeat frames stop here — they
// never reach the broker, and their message is decoded into again. Every
// frame has passed the decoder's wire bounds; one that still makes the
// broker panic must cost this connection, not the process, hence the
// recover.
func (s *Server) readLoop(dec *wirefmt.Decoder, tr *timedReader, l *link) {
	defer s.recoverPanic()
	var lt *broker.Lifetime
	for {
		if lt == nil {
			lt = s.msgs.Get().(*broker.Lifetime)
		}
		m := lt.Message()
		var decodeStart time.Time
		if tr != nil {
			decodeStart = time.Now()
		}
		if err := dec.Decode(m); err != nil {
			s.countBadFrame(err)
			return
		}
		var arrived time.Time
		if tr != nil {
			// Consumed for every frame so a control frame's arrival stamp
			// never leaks into the next publication's decode span.
			arrived = tr.frameStart(decodeStart)
		}
		l.lastRecv.Store(time.Now().UnixNano())
		if m.Type == broker.MsgHeartbeat {
			continue
		}
		if m.Type != broker.MsgPublish {
			lt = nil // the broker may keep a control message
			s.b.HandleMessage(m, l.id)
			continue
		}
		lt.Arm()
		lt = nil // the last holder returns it to the pool
		if tr != nil {
			d := max(time.Since(arrived), 0)
			if s.stageDecode != nil {
				s.stageDecode.Observe(d.Seconds())
			}
			m.SetArrival(d)
		}
		s.match(m, l.id)
	}
}

// match hands one publication to the broker and drops the read loop's hold
// on it when the broker returns, or panics.
func (s *Server) match(m *broker.Message, from string) {
	s.InFlight.Add(1)
	defer s.InFlight.Add(-1)
	defer m.Release()
	s.b.HandleMessage(m, from)
}

// repanic makes recoverPanic re-raise what it recovered, after counting it.
// The package's tests set it, so a test or fuzz target that makes the broker
// panic fails instead of seeing a closed connection.
var repanic bool

// recoverPanic, deferred by a read loop, turns a panic on one connection's
// frame into the loss of that connection: it counts the panic in
// HealthStats.Panics, and the read loop returns, which closes the
// connection. Broker locks are deferred, so the unwind has released them.
func (s *Server) recoverPanic() {
	if r := recover(); r != nil {
		s.stats.panics.Add(1)
		if repanic {
			panic(r)
		}
	}
}

// send delivers a message to a peer through its link. It is called by the
// broker with its lock held (shared for publications), so it must not call
// back into the broker; enqueueing on a send queue is all it does. A link
// that is down counts what it drops; a neighbour is repaired by the resync
// at its next attach, a client by its own replay when it redials.
func (s *Server) send(to string, m *broker.Message) {
	s.linkFor(to).deliver(m)
}

// dialNeighbor makes one dial attempt for a down link. On success the new
// connection is attached, the neighbour is resynced, and a read loop is
// started.
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
		s.readLoop(dec, tr, l)
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

	// mu is the send lock: it serialises encodes, and a redial's replay.
	mu  sync.Mutex
	enc *wirefmt.Encoder
	// connMu guards conn, the current connection. Close takes only this
	// lock, so it can close a connection that a Send is blocked writing to.
	connMu sync.Mutex
	conn   net.Conn
	// record holds the client's live control state — what a reconnect
	// replays so the restarted or recovered edge broker serves the client
	// again — and does the durable-subscribe conversion. It records only
	// with Reconnect on.
	record broker.ClientRecord

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
		record:     broker.ClientRecord{Durable: opts.Durable},
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

// readLoop hands every decoded delivery to Deliveries, redialling when the
// connection drops. It closes Deliveries when it gives up, or when Close is
// called, even while the application has stopped draining the channel.
func (c *Client) readLoop(conn net.Conn, dec *wirefmt.Decoder) {
	defer close(c.Deliveries)
	for {
		for {
			var m broker.Message
			if err := dec.Decode(&m); err != nil {
				goto redial
			}
			select {
			case c.Deliveries <- &m:
			case <-c.closed:
				return
			}
			if c.opts.AutoAck && m.Type == broker.MsgPublish && m.Durable != "" {
				c.Ack(m.Seq)
			}
		}
	redial:
		conn.Close()
		next, ndec := c.redial()
		if next == nil {
			return
		}
		conn, dec = next, ndec
	}
}

// redial re-establishes the connection with the servers' backoff, replaying
// the recorded control state once connected. It returns nils when
// reconnection is disabled, the client was closed, or the dial budget ran
// out.
func (c *Client) redial() (net.Conn, *wirefmt.Decoder) {
	if !c.opts.Reconnect {
		return nil, nil
	}
	wait := backoff{min: c.opts.ReconnectMin, max: c.opts.ReconnectMax}
	attempts := 0
	for {
		select {
		case <-c.closed:
			return nil, nil
		default:
		}
		conn, enc, dec, err := clientHandshake(c.addr, c.ID)
		if err == nil {
			if !c.setConn(conn) {
				return nil, nil
			}
			// Swap and replay under the send lock so no Send interleaves
			// with the replayed record on the fresh stream.
			c.mu.Lock()
			c.enc = enc
			replayed := true
			for _, m := range c.record.Messages() {
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
		if !wait.sleep(c.closed) {
			return nil, nil
		}
	}
}

// setConn makes conn the connection Close closes. It reports false, having
// closed conn, when the client is already closed.
func (c *Client) setConn(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	select {
	case <-c.closed:
		conn.Close()
		return false
	default:
	}
	c.conn = conn
	return true
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
	c.record.Prepare(m)
	if c.opts.Reconnect {
		c.record.Note(m)
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

// Close drops the connection and stops any reconnection. It does not wait
// for a Send in progress: closing the connection fails that Send.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.connMu.Lock()
		c.conn.Close()
		c.connMu.Unlock()
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
