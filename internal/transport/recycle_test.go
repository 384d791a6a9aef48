package transport

// A broker hop recycles the messages it decodes publications into (see the
// package comment, "Message lifetime"). These tests pin the saving — a
// forwarded publication costs the hop no allocation — and the safety: a
// message is not decoded into again while any holder, a shallow copy's
// included, can still read it.

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/publog"
	"repro/internal/trace"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// hopAllocCeiling bounds the mallocs, counted process-wide, per publication
// a broker receives from a client and forwards to a neighbour link and a
// client. Decoding into a fresh message costs at least one per
// publication, and so does a recycle hook made per publication; the pooled
// steady state costs none, and the ceiling leaves room for stray runtime
// allocations over a round.
const hopAllocCeiling = 0.05

// rawPeer is one connection to a server under test that speaks raw frames:
// it writes what the test hands it and drains everything the server sends,
// without allocating per read.
type rawPeer struct {
	conn net.Conn
	enc  *wirefmt.Encoder
}

// dialRaw connects to addr under id and starts draining.
func dialRaw(t *testing.T, addr, id string) *rawPeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &rawPeer{conn: conn, enc: wirefmt.NewEncoder(conn, wirefmt.DefaultLimits)}
	if err := p.enc.Hello(id); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	return p
}

// TestHopAllocsPinned pins a broker hop at no allocation per forwarded
// publication: one Server receives publications from a client connection
// and forwards each to a neighbour link and to a client, and the process's
// mallocs over a burst, divided by the burst's publications, must stay at
// or below hopAllocCeiling. The neighbour, the subscriber and the publisher
// are raw connections that allocate nothing per frame, so the count is the
// server's: read loop, decode, matching worker, send queues and writers.
func TestHopAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	var body strings.Builder
	body.WriteString("<stock><quote>")
	for body.Len() < 1024 { // well over the encoder's 256-byte inline threshold
		body.WriteString("<price>12.5</price>")
	}
	body.WriteString("</quote></stock>")
	forms := []struct {
		name string
		m    *broker.Message
	}{
		{"path", &broker.Message{Type: broker.MsgPublish, Stamp: 1,
			Pub: xmldoc.Publication{DocID: 1, Path: []string{"stock", "quote", "price"}}}},
		{"raw", &broker.Message{Type: broker.MsgPublish, Stamp: 1, Raw: []byte(body.String())}},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			s := NewServerOptions(broker.Config{ID: "b1", Metrics: metrics.NewRegistry()},
				map[string]string{"n1": "127.0.0.1:1"}, Options{})
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)

			// The neighbour attaches first, so the server never dials it.
			n1 := dialRaw(t, addr, "n1")
			waitFor(t, func() bool { _, ok := s.peers.Load("n1"); return ok })
			sub := dialRaw(t, addr, "sub")
			for _, p := range []struct {
				peer *rawPeer
				xpe  string
			}{{n1, "/stock"}, {sub, "/stock//price"}} {
				if err := p.peer.enc.Encode(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(p.xpe)}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool { return s.PRTSize() == 2 })
			pub := dialRaw(t, addr, "pub")

			// The first frame carries the link dictionary; after it, every
			// frame of a burst is the same bytes.
			var frames bytes.Buffer
			enc := wirefmt.NewEncoder(&frames, wirefmt.DefaultLimits)
			send := func(n int) {
				t.Helper()
				frames.Reset()
				for i := 0; i < n; i++ {
					if err := enc.Encode(f.m); err != nil {
						t.Fatal(err)
					}
				}
				want := s.wireTx.frames.Load() + 2*int64(n)
				if _, err := pub.conn.Write(frames.Bytes()); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(10 * time.Second)
				for s.wireTx.frames.Load() < want {
					if time.Now().After(deadline) {
						t.Fatalf("forwarded %d of %d frames", s.wireTx.frames.Load()-want+2*int64(n), 2*n)
					}
					time.Sleep(time.Millisecond)
				}
			}
			const burst = 2000
			send(1)
			send(burst) // warm the pool, the queues and both links' dictionaries
			// The best of three rounds: a stray allocation elsewhere in the
			// process (a runtime timer, a GC emptying the pool) can land in
			// one round, while a per-publication allocation shows in all.
			best := -1.0
			for round := 0; round < 3; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				send(burst)
				runtime.ReadMemStats(&after)
				if per := float64(after.Mallocs-before.Mallocs) / burst; best < 0 || per < best {
					best = per
				}
			}
			t.Logf("%s: %.4f mallocs per forwarded publication", f.name, best)
			if best > hopAllocCeiling {
				t.Errorf("%s publication: %.3f mallocs per forwarded publication, ceiling %.2f — the hop allocates per message again (a fresh decode target or a per-publication recycle hook?)",
					f.name, best, hopAllocCeiling)
			}
		})
	}
}

// heldConn gates the server's writes to one connection: once armed, every
// Write waits until the test opens the gate, or fails when the connection
// is closed meanwhile — a peer whose writer is held back with a staged
// batch.
type heldConn struct {
	net.Conn
	armed  atomic.Bool
	gate   chan struct{} // closed by the test to let writes through
	closed chan struct{} // closed by the first Close
	once   sync.Once
}

func newHeldConn(c net.Conn) *heldConn {
	return &heldConn{Conn: c, gate: make(chan struct{}), closed: make(chan struct{})}
}

func (h *heldConn) Write(p []byte) (int, error) {
	if h.armed.Load() {
		select {
		case <-h.gate:
		case <-h.closed:
			return 0, net.ErrClosed
		}
	}
	return h.Conn.Write(p)
}

func (h *heldConn) Close() error {
	h.once.Do(func() { close(h.closed) })
	return h.Conn.Close()
}

// recycleStream is the mixed publication stream of the safety test: path
// publications (some with attributes), raw bodies over the encoder's inline
// threshold, traced publications with an upstream hop, and publications
// only a durable subscription selects. Every publication differs from every
// other in its path, document id, attributes, body and trace, so a message
// decoded into while still queued shows in a delivery.
func recycleStream(n int) []*broker.Message {
	out := make([]*broker.Message, n)
	for i := range out {
		m := &broker.Message{Type: broker.MsgPublish, Stamp: int64(1000 + i),
			Pub: xmldoc.Publication{DocID: uint64(i), PathID: i}}
		leaf := fmt.Sprintf("e%d", i%13)
		switch i % 8 {
		case 5:
			m.Raw = []byte(fmt.Sprintf("<r><raw n=\"%d\">%s</raw></r>", i, strings.Repeat(leaf+" ", 80)))
		case 6:
			m.Pub.Path = []string{"r", "traced", leaf}
			m.TraceID = fmt.Sprintf("t%d", i)
			m.Hops = []trace.Hop{{Broker: "up", UnixNano: int64(i), Epoch: 1,
				Stages: []trace.StageDur{{Stage: trace.StageMatch, Nanos: int64(i)}}}}
		case 7:
			m.Pub.Path = []string{"r", "dur", leaf, fmt.Sprintf("x%d", i%5)}
		default:
			m.Pub.Path = []string{"r", "path", leaf}
			if i%2 == 0 {
				m.Pub.Attrs = []map[string]string{nil, {"n": fmt.Sprint(i)}, nil}
			}
		}
		out[i] = m
	}
	return out
}

// checkDelivery compares one delivery with the publication it carries,
// field by field: the path, attributes, body, stamp, trace id, the hops up
// to and including wantHops (the brokers crossed), and the durable stamp.
func checkDelivery(t *testing.T, who string, got, sent *broker.Message, wantHops []string, durable string, seq uint64) {
	t.Helper()
	if got.Type != broker.MsgPublish || got.Pub.DocID != sent.Pub.DocID || got.Pub.PathID != sent.Pub.PathID ||
		got.Stamp != sent.Stamp || got.TraceID != sent.TraceID {
		t.Fatalf("%s: delivery %v (doc %d, path id %d, stamp %d, trace %q) for publication doc %d",
			who, got.Type, got.Pub.DocID, got.Pub.PathID, got.Stamp, got.TraceID, sent.Pub.DocID)
	}
	if !reflect.DeepEqual(got.Pub.Path, sent.Pub.Path) || !bytes.Equal(got.Raw, sent.Raw) {
		t.Fatalf("%s: doc %d delivered path %q body %q, sent %q body %q",
			who, sent.Pub.DocID, got.Pub.Path, got.Raw, sent.Pub.Path, sent.Raw)
	}
	if len(sent.Pub.Attrs) > 0 && !reflect.DeepEqual(got.Pub.Attrs, sent.Pub.Attrs) {
		t.Fatalf("%s: doc %d delivered attributes %v, sent %v", who, sent.Pub.DocID, got.Pub.Attrs, sent.Pub.Attrs)
	}
	if got.Durable != durable || got.Seq != seq {
		t.Fatalf("%s: doc %d delivered durable %q seq %d, want %q seq %d", who, sent.Pub.DocID, got.Durable, got.Seq, durable, seq)
	}
	if sent.TraceID == "" {
		if len(got.Hops) != 0 {
			t.Fatalf("%s: untraced doc %d delivered hops %v", who, sent.Pub.DocID, got.Hops)
		}
		return
	}
	if len(got.Hops) != len(sent.Hops)+len(wantHops) || !reflect.DeepEqual(got.Hops[:len(sent.Hops)], sent.Hops) {
		t.Fatalf("%s: doc %d delivered hops %v, sent %v then %v", who, sent.Pub.DocID, got.Hops, sent.Hops, wantHops)
	}
	for i, b := range wantHops {
		if h := got.Hops[len(sent.Hops)+i]; h.Broker != b || len(h.Stages) == 0 {
			t.Fatalf("%s: doc %d hop %d is %+v, want broker %s with stages", who, sent.Pub.DocID, len(sent.Hops)+i, h, b)
		}
	}
}

// TestRecycledMessagesNeverReusedWhileHeld publishes a mixed stream —
// paths, raw bodies over the inline threshold, traced and durable
// publications — through broker b1, whose durable subscriber's writer is
// held back: its durable copies (of traced copies too) and the raw bodies
// they share stay queued and staged while b1 decodes later frames into
// recycled messages. Every delivery, at b1's plain client, at the held
// durable client and past the link at b2, must still carry exactly what was
// published, and every message b1 decoded a publication into must return
// to its pool exactly once. In "released" the gate opens; in "dropped" the
// held client goes away with its batch staged, and b1 must release the
// staged holds — only the messages stranded in the dead writer's queue are
// never recycled.
func TestRecycledMessagesNeverReusedWhileHeld(t *testing.T) {
	for _, mode := range []string{"released", "dropped"} {
		t.Run(mode, func(t *testing.T) { testRecycleUnderHold(t, mode == "dropped") })
	}
}

func testRecycleUnderHold(t *testing.T, drop bool) {
	store, err := publog.Open(t.TempDir(), publog.Options{SyncAppend: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	// b1's first accepted connection is the durable client's: it is dialled
	// before anything else exists, and links dial only on control traffic.
	var accepted atomic.Int32
	var held *heldConn
	n1, n2 := map[string]string{}, map[string]string{}
	b1 := NewServerOptions(broker.Config{ID: "b1", Durable: store}, n1, Options{
		ConnWrap: func(c net.Conn) net.Conn {
			if accepted.Add(1) == 1 {
				held = newHeldConn(c)
				return held
			}
			return c
		},
	})
	var recycled atomic.Int64
	b1.recycle = func(l *broker.Lifetime) {
		recycled.Add(1)
		b1.msgs.Put(l)
	}
	b2 := NewServer(broker.Config{ID: "b2"}, n2)
	addr1, err := b1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b1.Close)
	addr2, err := b2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b2.Close)
	n1["b2"], n2["b1"] = addr2, addr1
	b1.b.AddNeighbor("b2")
	b2.b.AddNeighbor("b1")

	keeper, err := DialOptions(addr1, "keeper", ClientOptions{Durable: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	defer keeper.Close()
	for _, x := range []string{"/r/traced", "/r/dur", "/r/raw"} {
		if err := keeper.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(x)}); err != nil {
			t.Fatal(err)
		}
		// Each attach replays the (empty) log: one bracket per subscribe.
		expectReplayOverWire(t, keeper, 1, 0)
	}
	all, err := Dial(addr1, "all")
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	far, err := Dial(addr2, "far")
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()
	for _, s := range []struct {
		c   *Client
		xpe string
	}{{all, "/r"}, {far, "/r/traced"}, {far, "/r/raw"}} {
		if err := s.c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(s.xpe)}); err != nil {
			t.Fatal(err)
		}
	}
	// b1 holds the four distinct expressions, two of them from b2 too.
	waitFor(t, func() bool { return b1.PRTSize() == 4 && b1.Stats().MsgsIn[broker.MsgSubscribe] == 3 })
	v, ok := b1.peers.Load("keeper")
	if !ok || v.(*peerConn).conn != held {
		t.Fatal("the held connection is not the durable client's")
	}
	pc := v.(*peerConn)
	pub, err := Dial(addr1, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// 400 publications, 150 of them for the held client: within its send
	// queue and one staged batch, so the matching worker never blocks on it
	// and the other 250 keep recycling.
	stream := recycleStream(400)
	held.armed.Store(true)
	for _, m := range stream {
		if err := pub.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for i, sent := range stream {
		checkDelivery(t, "all", nextDelivery(t, all), sent, []string{"b1"}, "", 0)
		if k := i % 8; k == 5 || k == 6 {
			checkDelivery(t, "far", nextDelivery(t, far), sent, []string{"b1", "b2"}, "", 0)
		}
	}
	// Once b1's worker is idle, everything but the held client's share has
	// been flushed, and nothing more is routed to the held client.
	waitFor(t, func() bool { return b1.InFlight.Load() == 0 })
	waitRecycled(t, &recycled, 250)

	if drop {
		keeper.Close()
		// The writer fails its held flush and exits; the broker routes
		// nothing more to the gone client.
		waitFor(t, func() bool {
			select {
			case <-pc.done:
				return true
			default:
				return false
			}
		})
		stranded := int64(len(pc.queue))
		if stranded == 0 || stranded == 150 {
			t.Fatalf("%d of 150 held messages stranded in the queue; want a staged batch and a queued rest", stranded)
		}
		waitRecycled(t, &recycled, int64(len(stream))-stranded)
		return
	}
	close(held.gate)
	seq := uint64(0)
	for i, sent := range stream {
		if k := i % 8; k < 5 {
			continue
		}
		seq++
		checkDelivery(t, "keeper", nextDelivery(t, keeper), sent, []string{"b1"}, "keep", seq)
	}
	waitRecycled(t, &recycled, int64(len(stream)))
}

// waitRecycled waits for the recycle count to reach want and stay there:
// fewer means a hold was never dropped, more that one was dropped early.
func waitRecycled(t *testing.T, recycled *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for recycled.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d messages recycled, want %d", recycled.Load(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := recycled.Load(); got != want {
		t.Fatalf("%d messages recycled, want %d", got, want)
	}
}

// TestFailurePathsReleaseTheirHold covers the holds that never reach a
// writer: an enqueue on a peer whose writer has exited or is stopping, and
// a dispatch to a closed server, each drop the hold they took or carried,
// so the message is still recycled once its other holders let go.
func TestFailurePathsReleaseTheirHold(t *testing.T) {
	recycled := 0
	l := broker.NewLifetime(func(*broker.Lifetime) { recycled++ })
	m := l.Message()

	exited := &peerConn{queue: make(chan queuedMsg), stop: make(chan struct{}), done: make(chan struct{})}
	close(exited.done)
	stopping := &peerConn{queue: make(chan queuedMsg), stop: make(chan struct{}), done: make(chan struct{})}
	close(stopping.stop)
	for _, p := range []*peerConn{exited, stopping} {
		l.Arm()
		if err := p.write(m); err == nil {
			t.Fatal("write to a dead peer succeeded")
		}
		m.Release() // the caller's own hold
	}
	if recycled != 2 {
		t.Fatalf("%d recycles after two failed writes, want 2", recycled)
	}

	s := &Server{closed: make(chan struct{})}
	close(s.closed)
	l.Arm()
	s.dispatchPublish(make(chan pubTask), m, "pub") // the read loop's hold passes in
	if recycled != 3 || s.InFlight.Load() != 0 {
		t.Fatalf("dispatch to a closed server: %d recycles, %d in flight; want 3 and 0", recycled, s.InFlight.Load())
	}
}
