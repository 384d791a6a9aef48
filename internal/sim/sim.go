// Package sim is a deterministic discrete-event simulator for broker
// overlays. It exists because the paper's network experiments need two
// things wall-clock runs give up: exact message counts (Tables 2 and 3) and
// stable notification delays (Figures 10 and 11). Events are processed on a
// virtual clock; per-hop delay is the sum of a pluggable link latency and,
// optionally, the broker's *measured* real processing time for the message —
// so routing-table compaction genuinely shows up as lower delay, exactly the
// effect the paper measures.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/broker"
	"repro/internal/faultinject"
	"repro/internal/wirefmt"
)

// Delivery records a publication arriving at a client.
type Delivery struct {
	Pub   string
	At    time.Duration
	Delay time.Duration
	// Seq is the durable sequence number stamped on deliveries to a durable
	// subscriber (zero otherwise); Replay marks deliveries that arrived
	// inside a replay-begin/replay-end bracket rather than live.
	Seq    uint64
	Replay bool
}

// Client is a publisher or subscriber attached to an edge broker.
type Client struct {
	ID     string
	Broker string

	// ClientRecord holds the client's live control messages — what the
	// TCP client's reconnect replays, and what the simulator re-sends when
	// the client reattaches or its edge broker restarts. Its Durable field,
	// when set, names a durable subscription on the edge broker:
	// Subscribe/Send convert plain subscriptions to durable registrations
	// under that name, and deliveries carry sequence numbers.
	broker.ClientRecord
	// AutoAck acknowledges each durable delivery as it arrives.
	AutoAck bool

	// Deliveries accumulates received publications.
	Deliveries []Delivery

	// detached marks a client whose connection is severed: frames addressed
	// to it are lost like any partitioned link's. replaying tracks whether
	// the client is inside a replay bracket.
	detached  bool
	replaying bool

	net *Network
}

// Subscribe registers an XPath subscription at the client's edge broker.
func (c *Client) Subscribe(m *broker.Message) { c.net.enqueueFromClient(c, m) }

// Send submits any message (advertise, subscribe, publish, ...) to the
// client's edge broker at the current virtual time.
func (c *Client) Send(m *broker.Message) { c.net.enqueueFromClient(c, m) }

// Network is the simulated overlay.
type Network struct {
	brokers map[string]*broker.Broker
	clients map[string]*Client
	queue   eventQueue
	seq     int
	now     time.Duration
	rand    *rand.Rand

	// cfgs and adj remember each broker's config and neighbour set so a
	// crashed broker can be rebuilt empty on restart.
	cfgs map[string]broker.Config
	adj  map[string]map[string]bool
	// partitioned marks severed links (canonical "a|b" keys); down marks
	// crashed brokers. Frames touching either are dropped.
	partitioned map[string]bool
	down        map[string]bool
	// faultDrops counts frames lost to injected faults.
	faultDrops int64

	// Latency computes the link delay per message; defaults to a constant
	// 500µs LAN.
	Latency LatencyModel
	// MeasureCompute adds each broker's real message-handling CPU time to
	// the virtual clock, so delays reflect routing-table work.
	MeasureCompute bool
	// Bandwidth, when positive, adds a serialisation delay per hop: the
	// bytes the link's wirefmt encoder writes for the message, divided by
	// Bandwidth (bytes per second). That is how document size reaches the
	// notification delay.
	Bandwidth float64

	// DurableReopen, when set, reopens a restarted broker's durable store
	// (publication log) before the fresh instance is built — the simulated
	// counterpart of a real broker process reopening its -durable-dir on
	// boot. The restart path then runs RecoverDurable after neighbour and
	// client registration, exactly like transport.NewServerOptions.
	DurableReopen func(id string) broker.DurableStore

	// brokerReceived counts messages delivered to brokers, by type — the
	// paper's network-traffic metric.
	brokerReceived map[broker.MsgType]int64

	outbox []outMsg // sends buffered during the current handler call

	// links holds the state of every directed link that has carried a
	// frame while Bandwidth is positive.
	links map[[2]string]*linkState
}

// linkState is one directed link's wire state: the encoder whose output is
// charged as transfer delay, its frame buffer, and the arrival time of the
// link's latest frame. A TCP stream delivers in order, so no frame arrives
// before it.
type linkState struct {
	enc    *wirefmt.Encoder
	frames []byte
	last   time.Duration
}

type outMsg struct {
	to  string
	msg *broker.Message
}

type event struct {
	at   time.Duration
	seq  int
	from string
	to   string
	msg  *broker.Message
	// fault, when non-nil, makes this a fault-plan transition instead of a
	// message delivery (see InjectPlan).
	fault *faultinject.Event
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewNetwork constructs an empty simulated overlay.
func NewNetwork(seed int64) *Network {
	return &Network{
		brokers:        make(map[string]*broker.Broker),
		clients:        make(map[string]*Client),
		rand:           rand.New(rand.NewSource(seed)),
		Latency:        ConstantLatency(500 * time.Microsecond),
		brokerReceived: make(map[broker.MsgType]int64),
		cfgs:           make(map[string]broker.Config),
		adj:            make(map[string]map[string]bool),
		partitioned:    make(map[string]bool),
		down:           make(map[string]bool),
		links:          make(map[[2]string]*linkState),
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// AddBroker creates a broker with the given config and places it in the
// overlay.
func (n *Network) AddBroker(cfg broker.Config) *broker.Broker {
	id := cfg.ID
	b := n.newBrokerInstance(cfg)
	n.brokers[id] = b
	n.cfgs[id] = cfg
	if n.adj[id] == nil {
		n.adj[id] = make(map[string]bool)
	}
	return b
}

// newBrokerInstance builds a broker wired to the network's outbox; restart
// uses it to replace a crashed instance with an empty one.
func (n *Network) newBrokerInstance(cfg broker.Config) *broker.Broker {
	return broker.New(cfg, func(to string, m *broker.Message) {
		n.outbox = append(n.outbox, outMsg{to: to, msg: m})
	})
}

// Broker returns a broker by ID, or nil.
func (n *Network) Broker(id string) *broker.Broker { return n.brokers[id] }

// Brokers returns all broker IDs in insertion-independent sorted order.
func (n *Network) Brokers() map[string]*broker.Broker { return n.brokers }

// Connect links two brokers as neighbours.
func (n *Network) Connect(a, b string) {
	ba, bb := n.brokers[a], n.brokers[b]
	if ba == nil || bb == nil {
		panic(fmt.Sprintf("sim: connect %s-%s: unknown broker", a, b))
	}
	ba.AddNeighbor(b)
	bb.AddNeighbor(a)
	n.adj[a][b] = true
	n.adj[b][a] = true
}

// Links returns every broker-broker link once, sorted — the partitionable
// resource list handed to a fault-plan generator.
func (n *Network) Links() [][2]string {
	var out [][2]string
	for a, peers := range n.adj {
		for b := range peers {
			if a < b {
				out = append(out, [2]string{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// AddClient attaches a client to an edge broker.
func (n *Network) AddClient(id, brokerID string) *Client {
	b := n.brokers[brokerID]
	if b == nil {
		panic(fmt.Sprintf("sim: unknown broker %s", brokerID))
	}
	c := &Client{ID: id, Broker: brokerID, net: n}
	n.clients[id] = c
	b.AddClient(id)
	return c
}

func (n *Network) enqueueFromClient(c *Client, m *broker.Message) {
	if m.Type == broker.MsgPublish && m.Stamp == 0 {
		m.Stamp = int64(n.now)
	}
	c.Prepare(m)
	c.Note(m)
	n.send(c.ID, c.Broker, m, 0)
}

// send schedules a frame on the directed link from→to. It arrives after
// the sender's processing time proc, the link latency and the transfer
// delay — the one place every frame's arrival time is computed.
func (n *Network) send(from, to string, m *broker.Message, proc time.Duration) {
	at := n.now + proc + n.Latency.Latency(from, to, n.rand)
	if n.Bandwidth > 0 {
		l := n.link(from, to)
		at += n.transfer(l, m)
		if at < l.last {
			at = l.last
		}
		l.last = at
	}
	n.push(&event{at: at, from: from, to: to, msg: m})
}

// flushOutbox schedules every message the broker from emitted during the
// handler call that just ended, proc after now.
func (n *Network) flushOutbox(from string, proc time.Duration) {
	for _, om := range n.outbox {
		n.send(from, om.to, om.msg, proc)
	}
	n.outbox = n.outbox[:0]
}

func (n *Network) push(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
}

// Run processes events until the queue drains, returning the number of
// events delivered.
func (n *Network) Run() int {
	processed := 0
	for n.queue.Len() > 0 {
		processed += n.step()
	}
	return processed
}

// step pops and processes one event.
func (n *Network) step() int {
	e := heap.Pop(&n.queue).(*event)
	n.now = e.at
	if debugTrace != nil {
		debugTrace(n, e)
	}
	if e.fault != nil {
		n.applyFault(e.fault)
		return 1
	}
	// Injected faults: frames on a severed link or addressed to a crashed
	// broker are lost, exactly like the TCP transport losing a connection
	// mid-stream.
	if n.down[e.to] || n.partitioned[linkKey(e.from, e.to)] {
		n.faultDrops++
		return 1
	}
	if b := n.brokers[e.to]; b != nil {
		n.brokerReceived[e.msg.Type]++
		n.outbox = n.outbox[:0]
		var proc time.Duration
		if n.MeasureCompute {
			start := time.Now()
			b.HandleMessage(e.msg, e.from)
			proc = time.Since(start)
		} else {
			b.HandleMessage(e.msg, e.from)
		}
		n.flushOutbox(e.to, proc)
		return 1
	}
	if c := n.clients[e.to]; c != nil {
		if c.detached {
			// A severed client connection loses frames exactly like a
			// partitioned link; durable deliveries are already logged
			// broker-side and replay on reattach.
			n.faultDrops++
			return 1
		}
		switch e.msg.Type {
		case broker.MsgPublish:
			d := Delivery{Pub: e.msg.Pub.String(), At: n.now,
				Seq: e.msg.Seq, Replay: c.replaying && e.msg.Durable != ""}
			if e.msg.Stamp != 0 {
				d.Delay = n.now - time.Duration(e.msg.Stamp)
			}
			c.Deliveries = append(c.Deliveries, d)
			if c.AutoAck && e.msg.Durable != "" {
				n.send(c.ID, c.Broker, &broker.Message{Type: broker.MsgAck, Durable: e.msg.Durable, Seq: e.msg.Seq}, 0)
			}
		case broker.MsgReplayBegin:
			c.replaying = true
		case broker.MsgReplayEnd:
			c.replaying = false
		}
		return 1
	}
	panic(fmt.Sprintf("sim: event for unknown peer %s", e.to))
}

// link returns the state of the directed link from→to. A link without an
// encoder gets a fresh one: the empty dictionary of a new connection.
func (n *Network) link(from, to string) *linkState {
	k := [2]string{from, to}
	l := n.links[k]
	if l == nil {
		l = &linkState{}
		n.links[k] = l
	}
	if l.enc == nil {
		l.enc = wirefmt.NewEncoder(nil, wirefmt.DefaultLimits)
	}
	return l
}

// transfer returns the serialisation delay of m on link l: the bytes l's
// encoder writes for it — dictionary extension included — divided by
// Bandwidth.
func (n *Network) transfer(l *linkState, m *broker.Message) time.Duration {
	var err error
	if l.frames, err = l.enc.Append(l.frames[:0], m); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	return time.Duration(float64(len(l.frames)) / n.Bandwidth * float64(time.Second))
}

// reconnect drops the encoder of every directed link between a and b
// (b == "" means every link touching a): the next frame opens a new
// connection, whose dictionary starts empty. Arrival order is kept, so no
// frame overtakes one still in flight.
func (n *Network) reconnect(a, b string) {
	joins := func(x, y string) bool { return x == a && (b == "" || y == b) }
	for k, l := range n.links {
		if joins(k[0], k[1]) || joins(k[1], k[0]) {
			l.enc = nil
		}
	}
}

// BrokerReceived returns how many messages of each type brokers received —
// the paper's network-traffic metric.
func (n *Network) BrokerReceived() map[broker.MsgType]int64 {
	out := make(map[broker.MsgType]int64, len(n.brokerReceived))
	for k, v := range n.brokerReceived {
		out[k] = v
	}
	return out
}

// TotalBrokerMessages sums BrokerReceived over all message types.
func (n *Network) TotalBrokerMessages() int64 {
	var total int64
	for _, v := range n.brokerReceived {
		total += v
	}
	return total
}

// ResetTraffic zeroes the traffic counters (useful between workload phases).
func (n *Network) ResetTraffic() {
	n.brokerReceived = make(map[broker.MsgType]int64)
}
