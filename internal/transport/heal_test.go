package transport

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/faultinject"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// fastHeal returns reconnect options tuned for test time scales.
func fastHeal() Options {
	return Options{
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		DialTimeout:  500 * time.Millisecond,
	}
}

// startPair boots two brokers connected to each other over loopback TCP,
// with per-server options. Like startChain, addresses are filled in after
// both listeners are bound.
func startPair(t *testing.T, cfg broker.Config, opts1, opts2 Options) (*Server, *Server, [2]string) {
	t.Helper()
	n1 := make(map[string]string)
	n2 := make(map[string]string)
	c1, c2 := cfg, cfg
	c1.ID, c2.ID = "b1", "b2"
	s1 := NewServerOptions(c1, n1, opts1)
	s2 := NewServerOptions(c2, n2, opts2)
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n1["b2"] = addr2
	n2["b1"] = addr1
	s1.b.AddNeighbor("b2")
	s2.b.AddNeighbor("b1")
	t.Cleanup(s1.Close)
	t.Cleanup(s2.Close)
	return s1, s2, [2]string{addr1, addr2}
}

// Regression for the silent-drop bug: Server.send used to discard the
// message when the peer's connection was dead or the redial failed. Here the
// first broker-to-broker connection is killed mid-stream while a client is
// issuing subscriptions; every subscription must still reach the neighbour —
// through the reconnect and the resync that repairs whatever died inside the
// killed connection's send queue or was dropped while the link was down.
func TestPeerKilledMidStreamControlNotLost(t *testing.T) {
	const subs = 10
	msgs := make([]*broker.Message, subs)
	for i := range msgs {
		msgs[i] = &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a/b" + string(rune('0'+i)))}
	}
	opts1 := fastHeal()
	// First wrapped connection is the subscriber client's inbound conn
	// (untouched); the second is the dialled link to b2 — killed after its
	// preamble plus half the bytes the ten forwarded subscriptions take. b1
	// writes at least all ten on that link (after a resync claim), so the
	// kill always lands inside the subscription stream, whatever the
	// batching.
	opts1.ConnWrap = faultinject.Sequence(
		faultinject.ConnFaults{},
		faultinject.ConnFaults{CloseAfterWriteBytes: helloBytes(t, "b1") + frameBytes(t, msgs...)/2},
	)
	s1, s2, _ := startPair(t, broker.Config{}, opts1, fastHeal())

	sub, err := Dial(s1.ln.Addr().String(), "c")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for _, m := range msgs {
		if err := sub.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s2.PRTSize() == subs })

	// Both ends see the cut, and either may redial first; the loser's stale
	// connection is then no longer its link's current one and goes
	// uncounted. The end that redials first has counted its loss, so the
	// link is judged from both ends.
	h1, h2 := s1.Health(), s2.Health()
	if h1.Disconnects+h2.Disconnects == 0 {
		t.Error("the fault never fired: no disconnect recorded")
	}
	if h1.Reconnects+h2.Reconnects == 0 {
		t.Error("link was not re-established")
	}
	if h1.Resyncs == 0 {
		t.Error("no resync after reconnect")
	}
}

// A neighbour that crashes and restarts empty must be repopulated: control
// messages issued during the outage are dropped and counted, and the resync
// at reconnect replays them together with the state forwarded before the
// crash.
func TestNeighborRestartRepopulatedByResync(t *testing.T) {
	s1, s2, addrs := startPair(t, broker.Config{}, fastHeal(), fastHeal())

	sub, err := Dial(s1.ln.Addr().String(), "c")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s2.PRTSize() == 1 })

	// Crash b2. The subscription issued during the outage has nowhere to go:
	// b1 drops it.
	s2.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/b")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Health().DroppedControl >= 1 })

	// Restart b2 empty on the same address; b1's reconnect loop finds it.
	c2 := broker.Config{}
	c2.ID = "b2"
	s3 := NewServerOptions(c2, map[string]string{"b1": addrs[0]}, fastHeal())
	if _, err := s3.Listen(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s3.Close)

	// Both the dropped /b and the pre-crash /a must reappear.
	waitFor(t, func() bool { return s3.PRTSize() == 2 })

	if s1.Health().Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
}

// Heartbeats must detect a peer that holds the TCP connection open but goes
// silent, and hand the connection back to the reconnect loop.
func TestHeartbeatDetectsDeadPeer(t *testing.T) {
	// A fake neighbour that accepts connections and never speaks.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()

	opts := fastHeal()
	opts.Heartbeat = 5 * time.Millisecond
	opts.DeadAfter = 20 * time.Millisecond
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, map[string]string{"b2": ln.Addr().String()}, opts)
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Provoke the dial: any control message bound for b2.
	s.Broker().HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}, "")
	waitFor(t, func() bool {
		h := s.Health()
		return h.HeartbeatsSent > 0 && h.DeadPeers > 0
	})
}

// An unreachable neighbour must not be redialled forever once the dial
// budget is spent — but new control traffic re-arms the link.
func TestDialBudgetExhaustionAndRevival(t *testing.T) {
	// An address nobody listens on: bind, note the port, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := fastHeal()
	opts.DialBudget = 2
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, map[string]string{"b2": deadAddr}, opts)
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	s.Broker().HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}, "")
	waitFor(t, func() bool { return s.Health().ReconnectAttempts == 2 })
	// The loop must now be quiescent: no further attempts accrue.
	time.Sleep(50 * time.Millisecond)
	if got := s.Health().ReconnectAttempts; got != 2 {
		t.Fatalf("dial budget ignored: %d attempts, want 2", got)
	}

	// Fresh control traffic revives the link with a reset budget.
	s.Broker().HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/b")}, "")
	waitFor(t, func() bool { return s.Health().ReconnectAttempts == 4 })
}

// Cold start: a broker whose neighbour is not listening yet takes a client's
// whole control flood — more messages than any bounded buffer would hold —
// and drops every message bound for the neighbour. When the neighbour
// starts, with no warm-up traffic, the one resync at attach must bring its
// tables to the full state.
func TestColdStartConvergesByResync(t *testing.T) {
	const n = 1500
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2 := ln.Addr().String()
	ln.Close()

	c1 := broker.Config{}
	c1.ID = "b1"
	s1 := NewServerOptions(c1, map[string]string{"b2": addr2}, fastHeal())
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.Close)

	cl, err := Dial(addr1, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		e := fmt.Sprintf("/r/e%d", i)
		if err := cl.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: advert.MustParse(e)}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(e)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s1.SRTSize() == n && s1.PRTSize() == n })
	waitFor(t, func() bool { return s1.Health().DroppedControl == 2*n })

	c2 := broker.Config{}
	c2.ID = "b2"
	s2 := NewServerOptions(c2, map[string]string{"b1": addr1}, fastHeal())
	if _, err := s2.Listen(addr2); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)

	waitFor(t, func() bool { return s2.SRTSize() == n && s2.PRTSize() == n })
	h := s1.Health()
	if h.DroppedControl != 2*n {
		t.Errorf("DroppedControl = %d, want %d", h.DroppedControl, 2*n)
	}
	if h.Resyncs < 1 {
		t.Errorf("Resyncs = %d, want at least 1", h.Resyncs)
	}
}

// A publication bound for a down link is dropped and counted as a
// publication, not as control: only control state is repaired by resync.
func TestPublicationsDroppedNotBuffered(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := fastHeal()
	opts.DialBudget = 1
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, map[string]string{"b2": deadAddr}, opts)
	t.Cleanup(s.Close)

	// A subscription from b2's direction makes publications route there.
	s.Broker().HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}, "b2")
	s.Broker().HandleMessage(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b"}}}, "")
	waitFor(t, func() bool { return s.Health().DroppedPubs == 1 })
	if got := s.Health().DroppedControl; got != 0 {
		t.Errorf("DroppedControl = %d, want 0 (a publication is not control)", got)
	}
}

// TestHeartbeatDetectsJammedPeer covers a neighbour that keeps its
// connection open and stops reading while a publisher floods it: once the
// send queue toward it is full, the neighbour goes silent too. The heartbeat
// loop must not wait on the full queue to send its beat, or it never gets
// back to the silence check and the jammed link is never declared dead.
func TestHeartbeatDetectsJammedPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	opts := fastHeal()
	opts.Heartbeat = 20 * time.Millisecond
	opts.DeadAfter = 100 * time.Millisecond
	opts.ConnWrap = smallSocketBuffers
	s := NewServerOptions(broker.Config{ID: "b1"}, map[string]string{"b2": deadAddr}, opts)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// The fake b2 dials in, subscribes to /a and beats every 10 ms, but
	// never reads.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	smallSocketBuffers(conn)
	enc := wirefmt.NewEncoder(conn, wirefmt.DefaultLimits)
	if err := enc.Hello("b2"); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	silent := make(chan struct{})
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-silent:
				return
			case <-tick.C:
			}
			if enc.Encode(&broker.Message{Type: broker.MsgHeartbeat}) != nil {
				return
			}
		}
	}()
	waitFor(t, func() bool { return s.PRTSize() == 1 })

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	raw := floodDoc()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: raw}) != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !stagedFull(s, "b2") {
		if time.Now().After(deadline) {
			t.Fatalf("the queue toward b2 never filled: %v", s.QueueDepths())
		}
		time.Sleep(time.Millisecond)
	}
	close(silent)
	deadline = time.Now().Add(3 * time.Second)
	for s.Health().DeadPeers == 0 {
		if time.Now().After(deadline) {
			h, q := s.Health(), s.QueueDepths()
			// Closing the server frees a publisher blocked in Send.
			s.Close()
			t.Fatalf("jammed b2 never declared dead: %d heartbeats sent, queues %v", h.HeartbeatsSent, q)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stagedFull reports whether the frames staged toward peer fill the
// staging bound, so a delivery there would wait.
func stagedFull(s *Server, peer string) bool {
	pc := s.linkFor(peer).conn()
	if pc == nil {
		return false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.staged) >= stageBytes
}
