package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// gatedConn holds every Read until open is closed.
type gatedConn struct {
	net.Conn
	open <-chan struct{}
}

func (c *gatedConn) Read(p []byte) (int, error) {
	<-c.open
	return c.Conn.Read(p)
}

// TestCrossingDialsKeepOneConnection pins the tie-break between two
// neighbours that dial each other at once (link.attach): both sides keep
// the connection the broker with the smaller id dialled, neither link
// drops, and publications cross it. Accepted connections are held before
// their preamble is read, so each case fixes the order of the four attaches.
//   - At once: each broker attaches the connection it dialled first and the
//     one it accepted second. Replacing the dialled connection with the
//     accepted one on both sides closed the connection each peer had just
//     kept: both links dropped and redialled, and each round lost what the
//     replaced connections had queued.
//   - b1 first: b1 refuses b2's dial, which b2 holds as its link until
//     b1's dial reaches it. Closing the refused connection at b1 would drop
//     b2's link, and b2 would redial at once, to be refused again.
//   - b2 first: b1 has accepted b2's dial when its own dial replaces it,
//     while b2 has not seen b1's dial yet. Closing the replaced connection
//     at b1 would drop b2's link in the same way.
func TestCrossingDialsKeepOneConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gated func(i int) bool // whether server i's accepted connections are held
		first int              // b1 or b2 dials first; 0: both before either accepts
	}{
		{"at-once", func(int) bool { return true }, 0},
		{"b1-first", func(i int) bool { return i == 1 }, 1},
		{"b2-first", func(i int) bool { return i == 1 }, 2},
	} {
		t.Run(tc.name, func(t *testing.T) { checkCrossingDials(t, tc.gated, tc.first) })
	}
}

func checkCrossingDials(t *testing.T, gated func(int) bool, first int) {
	open := make(chan struct{})
	var mu sync.Mutex
	held := map[string]bool{} // listener addresses whose accepted connections are held
	opts := Options{ConnWrap: func(c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		if held[c.LocalAddr().String()] {
			return &gatedConn{Conn: c, open: open}
		}
		return c
	}}
	s1, s2, addrs := startPair(t, broker.Config{}, opts, opts)
	var once sync.Once
	release := func() { once.Do(func() { close(open) }) }
	t.Cleanup(release) // runs before the servers close
	mu.Lock()
	for i, a := range addrs {
		held[a] = gated(i)
	}
	mu.Unlock()

	l1, l2 := s1.linkFor("b2"), s2.linkFor("b1")
	switch first {
	case 0:
		if err := s1.dialNeighbor(l1); err != nil {
			t.Fatal(err)
		}
		if err := s2.dialNeighbor(l2); err != nil {
			t.Fatal(err)
		}
	case 1:
		if err := s1.dialNeighbor(l1); err != nil {
			t.Fatal(err)
		}
		if err := s2.dialNeighbor(l2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond) // a close of b2's dial would land by now
	case 2:
		if err := s2.dialNeighbor(l2); err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool { return l1.conn() != nil })
		if err := s1.dialNeighbor(l1); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Millisecond) // a close of b2's dial would land by now
	}
	release()

	// Both links settle on one TCP connection: b1's local end is b2's
	// remote end, and b1 dialled it.
	same := func() bool {
		c1, c2 := l1.conn(), l2.conn()
		return c1 != nil && c2 != nil &&
			c1.conn.LocalAddr().String() == c2.conn.RemoteAddr().String() &&
			c1.conn.RemoteAddr().String() == c2.conn.LocalAddr().String()
	}
	waitFor(t, same)
	time.Sleep(100 * time.Millisecond) // a replaced connection's close would land by now
	if !same() || !l1.conn().dialled {
		t.Fatal("the links did not keep the connection b1 dialled")
	}
	if d1, d2 := s1.Health().Disconnects, s2.Health().Disconnects; d1 != 0 || d2 != 0 {
		t.Fatalf("crossing dials cost %d and %d disconnects, want none", d1, d2)
	}

	sub, err := Dial(addrs[1], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s1.PRTSize() == 1 })
	pub, err := Dial(addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	const docs = 200
	for n := 0; n < docs; n++ {
		if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(n), Path: []string{"a"}}}); err != nil {
			t.Fatal(err)
		}
	}
	for got := 0; got < docs; got++ {
		select {
		case <-sub.Deliveries:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d publications; b1 %+v, b2 %+v", got, docs, s1.Health(), s2.Health())
		}
	}
}
