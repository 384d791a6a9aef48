package transport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// startChain boots n brokers connected in a chain over loopback TCP and
// returns their addresses.
func startChain(t *testing.T, n int, cfg broker.Config) []*Server {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*Server, n)
	// Two passes: addresses must exist before neighbours maps are built, so
	// listeners are bound first with empty neighbour maps filled after.
	neighbors := make([]map[string]string, n)
	for i := range servers {
		neighbors[i] = make(map[string]string)
	}
	for i := range servers {
		c := cfg
		c.ID = fmt.Sprintf("b%d", i+1)
		servers[i] = NewServer(c, neighbors[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(servers[i].Close)
	}
	for i := range servers {
		if i > 0 {
			neighbors[i][fmt.Sprintf("b%d", i)] = addrs[i-1]
			servers[i].b.AddNeighbor(fmt.Sprintf("b%d", i))
		}
		if i < n-1 {
			neighbors[i][fmt.Sprintf("b%d", i+2)] = addrs[i+1]
			servers[i].b.AddNeighbor(fmt.Sprintf("b%d", i+2))
		}
	}
	return servers
}

func TestEndToEndOverTCP(t *testing.T) {
	servers := startChain(t, 3, broker.Config{UseAdvertisements: true, UseCovering: true})
	pubAddr := servers[0].ln.Addr().String()
	subAddr := servers[2].ln.Addr().String()

	pub, err := Dial(pubAddr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := Dial(subAddr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: "a1", Adv: advert.MustParse("/stock/quote/price")}); err != nil {
		t.Fatal(err)
	}
	// Give the flood a moment to traverse the chain before subscribing.
	waitFor(t, func() bool { return servers[2].SRTSize() == 1 })

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })

	if err := pub.Send(&broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"stock", "quote", "price"}},
	}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pub.Path) != 3 || m.Pub.Path[0] != "stock" {
		t.Errorf("delivered %v", m.Pub)
	}
	if m.Stamp == 0 {
		t.Error("publication stamp missing")
	}
}

func TestNonMatchingSubscriberGetsNothing(t *testing.T) {
	servers := startChain(t, 2, broker.Config{})
	sub, err := Dial(servers[1].ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(servers[0].ln.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/none")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })
	if err := pub.Send(&broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{Path: []string{"stock", "quote"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitDelivery(300 * time.Millisecond); err == nil {
		t.Error("non-matching subscriber received a publication")
	}
}

func TestWholeDocumentOverTCP(t *testing.T) {
	servers := startChain(t, 2, broker.Config{})
	sub, err := Dial(servers[1].ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(servers[0].ln.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("//title")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })
	raw := []byte(`<catalog><book><title>Go</title></book></catalog>`)
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: raw}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Raw, raw) {
		t.Errorf("delivered %v", m)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// readLoops counts the goroutines running a client read loop.
func readLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), ".(*Client).readLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestClientCloseWhileDeliveriesFull fills a subscriber's Deliveries
// channel and leaves its read loop blocked on one more delivery: Close must
// still end that loop, and the loop must close Deliveries.
func TestClientCloseWhileDeliveriesFull(t *testing.T) {
	servers := startChain(t, 1, broker.Config{})
	addr := servers[0].ln.Addr().String()
	sub, err := Dial(addr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })
	n := cap(sub.Deliveries) + 8
	for i := 0; i < n; i++ {
		m := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(i), Path: []string{"a"}}}
		if err := pub.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(sub.Deliveries) == cap(sub.Deliveries) })
	// Read loops of earlier tests' closed clients may still be exiting, so
	// the count is only required to fall.
	open := readLoops()
	sub.Close()
	waitFor(t, func() bool { return readLoops() < open })
	got := 0
	for range sub.Deliveries {
		got++
	}
	if got < cap(sub.Deliveries) {
		t.Fatalf("drained %d deliveries after Close, want at least %d", got, cap(sub.Deliveries))
	}
}

// failingListener returns EMFILE from its next fails Accept calls.
type failingListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *failingListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestAcceptRetriesAfterError starts a server whose first Accept calls
// fail: it must keep accepting, and a client must still be served.
func TestAcceptRetriesAfterError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &failingListener{Listener: ln}
	fl.fails.Store(3)
	s := NewServer(broker.Config{ID: "b1"}, nil)
	s.serve(fl)
	t.Cleanup(s.Close)
	c, err := Dial(ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })
	if fl.fails.Load() >= 0 {
		t.Fatalf("%d failing Accept calls left unmade", fl.fails.Load()+1)
	}
}

// TestCloseWithSilentConnection dials a server and writes nothing: the
// accepted connection waits for its preamble and belongs to no link yet.
// Close must close it and return rather than wait for the preamble.
func TestCloseWithSilentConnection(t *testing.T) {
	accepted := make(chan struct{}, 1)
	s, addr := startEdge(t, func(c net.Conn) net.Conn {
		accepted <- struct{}{}
		return c
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the connection")
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		conn.Close() // the preamble read fails, so Close can return
		<-closed
		t.Fatal("Close blocked on a connection that never sent its preamble")
	}
}

// TestClientCloseDuringBlockedSend points a client at a broker that reads
// its preamble and then stops reading, and sends until a Send blocks in the
// socket write. Close must not wait for that Send: it must return at once,
// fail the Send and close Deliveries.
func TestClientCloseDuringBlockedSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hello := make([]byte, helloBytes(t, "c"))
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		io.ReadFull(conn, hello)
		accepted <- conn
	}()
	c, err := Dial(ln.Addr().String(), "c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srvConn := <-accepted
	// Closing the server's end, last, frees a Send that Close failed to.
	defer srvConn.Close()

	raw := floodDoc()
	var sent atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		for {
			if err := c.Send(&broker.Message{Type: broker.MsgPublish, Raw: raw}); err != nil {
				sendErr <- err
				return
			}
			sent.Add(1)
		}
	}()
	// Blocked: no Send has returned for 200 ms.
	for last := int64(-1); sent.Load() != last; time.Sleep(200 * time.Millisecond) {
		last = sent.Load()
	}

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close waited for the blocked Send")
	}
	select {
	case err := <-sendErr:
		if err == nil {
			t.Fatal("the blocked Send succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("the blocked Send did not return after Close")
	}
	select {
	case _, ok := <-c.Deliveries:
		if ok {
			t.Fatal("a delivery arrived from a broker that sends nothing")
		}
	case <-time.After(time.Second):
		t.Fatal("Deliveries not closed after Close")
	}
}

// panicSink is a trace sink that panics on every event.
type panicSink struct{}

func (panicSink) Record(trace.Event) { panic("trace sink failed") }

// TestRecoveredPanicClosesConnection makes the broker panic on a traced
// publication, with the re-raise off: the panic must be counted, and the
// publisher's connection closed.
func TestRecoveredPanicClosesConnection(t *testing.T) {
	repanic = false
	s := NewServer(broker.Config{ID: "b1", TraceSink: panicSink{}}, nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Close waits for the read loops, so none still reads repanic.
	defer func() {
		s.Close()
		repanic = true
	}()
	c, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: []string{"a"}}, TraceID: "t-1"}
	if err := c.Send(m); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-c.Deliveries:
		if ok {
			t.Fatal("a delivery arrived for a publication nobody subscribed to")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the connection stayed open after a panic")
	}
	if got := s.Health().Panics; got != 1 {
		t.Fatalf("Panics = %d, want 1", got)
	}
}
