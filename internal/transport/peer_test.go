package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// A client is a link like a neighbour: a publication matched for a client
// whose connection has dropped, with its subscription still in the PRT, is
// dropped and counted, not lost silently.
func TestPublicationForGoneClientCounted(t *testing.T) {
	s, addr := startEdge(t, nil)
	sub, err := Dial(addr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })
	sub.Close()
	waitFor(t, func() bool { return s.Health().Disconnects == 1 })

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 1, Path: []string{"a"}}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Health().DroppedPubs == 1 })
	if s.PRTSize() != 1 {
		t.Errorf("PRT size %d, want the gone client's subscription kept", s.PRTSize())
	}
}

// A client that dials again under the same id while its first connection
// is still open replaces that connection, as a neighbour's reattach does:
// the first is closed, and deliveries go to the second.
func TestClientReattachClosesOldConnection(t *testing.T) {
	s, addr := startEdge(t, nil)
	first, err := Dial(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })

	second, err := Dial(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	// The first client's read loop closes Deliveries once the broker has
	// closed its connection.
	select {
	case m, ok := <-first.Deliveries:
		if ok {
			t.Fatalf("first connection got %+v, want it closed", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the first connection was not closed by the reattach")
	}

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 7, Path: []string{"a"}}}); err != nil {
		t.Fatal(err)
	}
	m, err := second.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pub.DocID != 7 {
		t.Fatalf("second connection got doc %d, want 7", m.Pub.DocID)
	}
	if h := s.Health(); h.DroppedPubs != 0 || h.Disconnects != 0 {
		t.Errorf("health %+v: a replaced connection is neither a disconnect nor a drop", h)
	}
}

// A connection replaced by a reattach under the same id is shut down with
// whatever it had staged. Those publications are counted as dropped: here
// the first connection's writer is held in its write while the rest of the
// publications for it are staged, and the client then dials again.
func TestReattachCountsStagedFramesDropped(t *testing.T) {
	const n = 20
	var held *heldConn
	var accepted atomic.Int32
	s, addr := startEdge(t, func(c net.Conn) net.Conn {
		if accepted.Add(1) == 1 {
			held = newHeldConn(c)
			return held
		}
		return c
	})
	first, err := Dial(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })
	held.armed.Store(true)

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < n; i++ {
		if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(i), Path: []string{"a"}}}); err != nil {
			t.Fatal(err)
		}
	}
	// The writer holds what it took first in its write; the rest are staged
	// behind it.
	waitFor(t, func() bool {
		return s.Stats().MsgsIn[broker.MsgPublish] == n && s.InFlight.Load() == 0 && s.QueueDepths()["c"] < n
	})

	second, err := Dial(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	waitFor(t, func() bool { return s.Health().DroppedPubs == n })
	time.Sleep(20 * time.Millisecond)
	if h := s.Health(); h.DroppedPubs != n || h.DroppedControl != 0 || h.Disconnects != 0 {
		t.Errorf("health %+v: want %d dropped publications, no dropped control and no disconnect", h, n)
	}
}

// Close racing client attaches returns, and no connection it served
// survives it: every read loop and writer goroutine exits, although the
// clients keep their ends open.
func TestCloseRacingClientAttaches(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer(broker.Config{ID: "b1"}, nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()
	// Some ids repeat, so reattaches race Close as well.
	var hellos [4][3][]byte
	for i := range hellos {
		for j := range hellos[i] {
			hellos[i][j] = preamble(t, fmt.Sprintf("c%d-%d", i, j))
		}
	}
	attached := make(chan struct{}, 4*16) // one per dial: never blocks
	for i := range hellos {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return // the listener is closed
				}
				mu.Lock()
				conns = append(conns, conn)
				mu.Unlock()
				if _, err := conn.Write(hellos[i][j%3]); err != nil {
					return
				}
				attached <- struct{}{}
			}
		}(i)
	}
	<-attached
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the server started:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
