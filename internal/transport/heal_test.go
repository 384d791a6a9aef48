package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultinject"
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
// through the retry buffer, the reconnect, and the resync that repairs
// whatever died inside the killed connection's send queue.
func TestPeerKilledMidStreamControlNotLost(t *testing.T) {
	const subs = 10
	msgs := make([]*broker.Message, subs)
	for i := range msgs {
		msgs[i] = &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a/b" + string(rune('0'+i)))}
	}
	opts1 := fastHeal()
	// First wrapped connection is the subscriber client's inbound conn
	// (untouched); the second is the dialled link to b2 — killed after its
	// hello plus half the bytes the ten forwarded subscriptions take. b1
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
// messages issued during the outage are retry-buffered and flushed on
// reconnect, and the resync replays the state forwarded before the crash.
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

	// Crash b2. The subscription issued during the outage has nowhere to go
	// except b1's retry buffer.
	s2.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/b")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.Health().RetryBuffered >= 1 })

	// Restart b2 empty on the same address; b1's reconnect loop finds it.
	c2 := broker.Config{}
	c2.ID = "b2"
	s3 := NewServerOptions(c2, map[string]string{"b1": addrs[0]}, fastHeal())
	if _, err := s3.Listen(addrs[1]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s3.Close)

	// Both the buffered /b and the pre-crash /a must reappear.
	waitFor(t, func() bool { return s3.PRTSize() == 2 })

	h := s1.Health()
	if h.Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
	if h.RetryFlushed == 0 {
		t.Error("retry buffer was never flushed")
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

// The retry buffer is bounded: overflow evicts the oldest entries and is
// counted, so operators can see that resync had to repair the loss.
func TestRetryBufferOverflowCounted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	opts := fastHeal()
	opts.RetryBuffer = 2
	opts.DialBudget = 1
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, map[string]string{"b2": deadAddr}, opts)
	t.Cleanup(s.Close)

	for _, e := range []string{"/a", "/b", "/c", "/d", "/e"} {
		s.Broker().HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(e)}, "")
	}
	h := s.Health()
	if h.RetryBuffered != 5 {
		t.Errorf("RetryBuffered = %d, want 5", h.RetryBuffered)
	}
	if h.RetryOverflow != 3 {
		t.Errorf("RetryOverflow = %d, want 3", h.RetryOverflow)
	}
}

// Publications are never buffered across an outage — they are dropped and
// counted; only control state is retried.
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
	if got := s.Health().RetryBuffered; got != 0 {
		t.Errorf("RetryBuffered = %d, want 0 (publications must not be buffered)", got)
	}
}
