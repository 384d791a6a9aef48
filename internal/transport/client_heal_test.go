package transport

import (
	"bytes"
	"encoding/gob"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faultinject"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func fastClient() ClientOptions {
	return ClientOptions{
		Reconnect:    true,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	}
}

// startEdge boots a single broker with the given connection faults.
func startEdge(t *testing.T, wrap func(net.Conn) net.Conn) (*Server, string) {
	t.Helper()
	opts := fastHeal()
	opts.ConnWrap = wrap
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, nil, opts)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr
}

// helloBytes is the length of the hello a dialler with this id writes: the
// gob type descriptor and the value, offering the binary codec.
func helloBytes(t *testing.T, id string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hello{ID: id, Wire: WireBinary}); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// frameBytes is the length of msgs as the first binary frames on a fresh
// connection: the per-link dictionary starts empty, so the extension
// frames the messages need are included.
func frameBytes(t *testing.T, msgs ...*broker.Message) int {
	t.Helper()
	var buf bytes.Buffer
	enc := wirefmt.NewEncoder(&buf, wirefmt.DefaultLimits)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Len()
}

// killAfterFirstSubscribe is a fault plan for the edge broker: its first
// inbound connection dies on the first read after the client's hello and
// one subscribe frame — byte offsets, so it holds however TCP segments the
// stream. Everything after reconnects cleanly.
func killAfterFirstSubscribe(t *testing.T, id string, subscribe *broker.Message) func(net.Conn) net.Conn {
	return faultinject.Sequence(faultinject.ConnFaults{
		CloseAfterReadBytes: helloBytes(t, id) + frameBytes(t, subscribe),
	})
}

// A reconnecting client whose connection is killed mid-stream must redial,
// replay its subscriptions, and keep delivering on the same Deliveries
// channel.
func TestClientReconnectReplaysSubscriptions(t *testing.T) {
	subscribe := &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}
	s, addr := startEdge(t, killAfterFirstSubscribe(t, "sub", subscribe))

	sub, err := DialOptions(addr, "sub", fastClient())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deliveries := sub.Deliveries // must be the same channel after the swap

	if err := sub.Send(subscribe); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })
	// The injected fault kills the connection; the client must come back
	// and the replayed subscription must keep the table intact.
	waitFor(t, func() bool { return sub.Reconnects.Load() >= 1 })
	waitFor(t, func() bool { return s.PRTSize() == 1 })

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b"}}}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pub.Path) != 2 || m.Pub.Path[0] != "a" {
		t.Errorf("delivered %v", m.Pub)
	}
	if sub.Deliveries != deliveries {
		t.Error("Deliveries channel was replaced across the reconnect")
	}
}

// Without Reconnect the historical contract holds: the connection dropping
// closes Deliveries.
func TestClientDefaultClosesOnDrop(t *testing.T) {
	subscribe := &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}
	_, addr := startEdge(t, killAfterFirstSubscribe(t, "sub", subscribe))
	sub, err := Dial(addr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(subscribe); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitDelivery(5 * time.Second); err == nil {
		t.Fatal("Deliveries stayed open after the connection dropped")
	}
}

// The outage-window contract: an edge broker that dies and comes back empty
// is repopulated by the client's replayed record, and publications issued
// after the heal are delivered. Publications during the outage are lost —
// only control state survives.
func TestClientOutageWindowDelivery(t *testing.T) {
	cfg := broker.Config{}
	cfg.ID = "b1"
	s1 := NewServerOptions(cfg, nil, fastHeal())
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	opts := fastClient()
	opts.ReconnectMax = 50 * time.Millisecond
	sub, err := DialOptions(addr, "sub", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.PRTSize() == 1 })

	// Crash the edge broker; its routing state is gone.
	s1.Close()

	// Restart empty on the same address; the client's replay must rebuild
	// the subscription without any help.
	s2 := NewServerOptions(cfg, nil, fastHeal())
	if _, err := s2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	waitFor(t, func() bool { return sub.Reconnects.Load() >= 1 })
	waitFor(t, func() bool { return s2.PRTSize() == 1 })

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"a"}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitDelivery(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// An unsubscribe during the session must also shrink the replayed record:
// after a reconnect the broker must only hold what is still live.
func TestClientReplaySkipsWithdrawnSubscriptions(t *testing.T) {
	cfg := broker.Config{}
	cfg.ID = "b1"
	s1 := NewServerOptions(cfg, nil, fastHeal())
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	sub, err := DialOptions(addr, "sub", fastClient())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, e := range []string{"/a", "/b"} {
		if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse(e)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sub.Send(&broker.Message{Type: broker.MsgUnsubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.PRTSize() == 1 })

	s1.Close()
	s2 := NewServerOptions(cfg, nil, fastHeal())
	if _, err := s2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	waitFor(t, func() bool { return sub.Reconnects.Load() >= 1 })
	waitFor(t, func() bool { return s2.PRTSize() == 1 })
	time.Sleep(20 * time.Millisecond) // give a spurious /a replay time to land
	if got := s2.PRTSize(); got != 1 {
		t.Fatalf("PRT = %d after replay, want 1 (/a was unsubscribed)", got)
	}
}

// A corrupt frame must cost exactly the connection it arrived on: the server
// closes it, does not panic, and leaks no goroutines.
func TestCorruptFrameClosesConnNoGoroutineLeak(t *testing.T) {
	_, addr := startEdge(t, nil)
	time.Sleep(10 * time.Millisecond)
	base := runtime.NumGoroutine()

	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A valid hello so the server registers the peer, then garbage.
		if err := sendRaw(conn, i); err != nil {
			t.Fatal(err)
		}
		// Half-close: junk that imitates an incomplete frame is legitimately
		// waited for until EOF proves it will never complete.
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		// The server must close the connection: our read must return an
		// error and not hang.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 256)
		var rerr error
		for rerr == nil {
			_, rerr = conn.Read(buf)
		}
		if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
			t.Fatal("server left the connection open after a corrupt frame")
		}
		conn.Close()
	}

	// Every per-connection goroutine must be gone again.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+1 })
}

// sendRaw writes a valid hello followed by a deterministically corrupt
// payload variant chosen by i.
func sendRaw(conn net.Conn, i int) error {
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(hello{ID: "evil"}); err != nil {
		return err
	}
	junk := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		{0x03, 0x01, 0x02},       // plausible length prefix, bogus body
		{0x7f, 0x00},             // huge declared length, truncated
		{0x00},                   // zero-length message
		{0x41, 0x41, 0x41, 0x41}, // ASCII noise
	}
	_, err := conn.Write(junk[i%len(junk)])
	return err
}
