package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// The wire bounds themselves are pinned at the decoder (package wirefmt);
// these tests pin what the transport does around it: a rejected preamble or
// frame costs exactly its connection, is counted, and reaches nothing.

// gobHello is what a build from before the binary preamble opened every
// connection with: a gob-encoded hello offering the binary codec.
func gobHello(t testing.TB) []byte {
	t.Helper()
	type hello struct{ ID, Wire string }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hello{ID: "old", Wire: WireBinary}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// overLongHello is a preamble whose id is one byte over the bound.
func overLongHello(t testing.TB) []byte {
	head := preamble(t, "")[:len("XRW")+1] // magic and version
	b := binary.AppendUvarint(head, wirefmt.MaxName+1)
	return append(b, strings.Repeat("i", wirefmt.MaxName+1)...)
}

// expectServerClose reads until the server closes conn, failing the test if
// it stays open instead.
func expectServerClose(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	var err error
	for err == nil {
		_, err = conn.Read(buf)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the connection open")
	}
}

// A connection that opens with anything but the preamble — an old build's
// gob hello included — is closed, counted in BadFrames, and leaves no
// goroutine behind.
func TestBadPreambleClosesConnection(t *testing.T) {
	s, addr := startEdge(t, nil)
	good := preamble(t, "ok")
	badMagic := bytes.Clone(good)
	badMagic[0] = 'x'
	badVersion := bytes.Clone(good)
	badVersion[len("XRW")]++
	cases := []struct {
		name string
		data []byte
	}{
		{"bad-magic", badMagic},
		{"wrong-version", badVersion},
		{"over-long-id", overLongHello(t)},
		{"gob-hello", gobHello(t)},
		{"http", []byte("GET / HTTP/1.1\r\n\r\n")},
	}
	time.Sleep(10 * time.Millisecond)
	base := runtime.NumGoroutine()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.data); err != nil {
				t.Fatal(err)
			}
			expectServerClose(t, conn)
			waitFor(t, func() bool { return s.Health().BadFrames == int64(i+1) })
		})
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+1 })
}

// A well-formed frame whose payload violates the wire bounds — a
// subscription no parser would ever produce — must cost the connection and
// never reach the broker.
func TestWireRejectsHostileSubscription(t *testing.T) {
	s, addr := startEdge(t, nil)

	steps := make([]xpath.Step, 100)
	for i := range steps {
		steps[i] = xpath.Step{Axis: xpath.Descendant, Name: xpath.Wildcard}
	}
	// Only an encoder with raised limits will write it.
	loose := wirefmt.DefaultLimits
	loose.MaxSteps = len(steps)
	var frames bytes.Buffer
	sub := &broker.Message{Type: broker.MsgSubscribe, XPE: xpath.New(false, steps...)}
	if err := wirefmt.NewEncoder(&frames, loose).Encode(sub); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(preamble(t, "evil"), frames.Bytes()...)); err != nil {
		t.Fatal(err)
	}

	expectServerClose(t, conn)
	waitFor(t, func() bool { return s.Health().BadFrames == 1 })
	if got := s.PRTSize(); got != 0 {
		t.Fatalf("hostile subscription reached the broker: PRT = %d", got)
	}
}

// Interned symbols are process-local: a publication's SymPath is a foreign
// table's integers and must never cross the wire, or a peer could steer
// matching away from (or toward) subscriptions at will.
func TestWireDropsForeignSymPath(t *testing.T) {
	s, addr := startEdge(t, nil)

	sub, err := Dial(addr, "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })

	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// Path says /a (matches); SymPath claims an element that was never
	// interned (would not match). The broker must believe Path.
	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{
		Path:    []string{"a"},
		SymPath: []symtab.Sym{1 << 30},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitDelivery(5 * time.Second); err != nil {
		t.Fatal("publication with a forged SymPath was not delivered by Path: ", err)
	}
}

// A peer's publication paths must not grow the process symbol table: each
// new name would copy the whole table and stay for good. The decoder looks
// names up instead, so fresh names still reach a wildcard subscriber, and a
// name a later subscription interns is matched on the link's next use of it.
func TestPeerPathsDoNotGrowSymbolTable(t *testing.T) {
	s, addr := startEdge(t, nil)
	all, err := Dial(addr, "all")
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	if err := all.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("//*")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 1 })
	pub, err := Dial(addr, "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	const n = 5000
	prefix := fmt.Sprintf("fresh%d-", time.Now().UnixNano())
	publish := func(doc int) error {
		name := prefix + fmt.Sprint(doc%n)
		return pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{
			DocID: uint64(doc), Path: []string{name, name + "x"}}})
	}
	before := symtab.Default.Len()
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := publish(i); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < n; i++ {
		m, err := all.WaitDelivery(5 * time.Second)
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if m.Pub.DocID != uint64(i) {
			t.Fatalf("delivery %d is doc %d", i, m.Pub.DocID)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if after := symtab.Default.Len(); after != before {
		t.Fatalf("symbol table grew from %d to %d names", before, after)
	}

	one, err := Dial(addr, "one")
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if err := one.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/" + prefix + "17")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.PRTSize() == 2 })
	if err := publish(n + 17); err != nil {
		t.Fatal(err)
	}
	m, err := one.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal("the publication a later subscription interned was not delivered: ", err)
	}
	if m.Pub.DocID != n+17 {
		t.Fatalf("got doc %d, want %d", m.Pub.DocID, n+17)
	}
}

// TestRawPassthroughByteIdentical pins the Raw forwarding contract across
// the binary wire: the bytes a publisher hands in are the bytes every hop
// forwards and the subscriber receives — no copy may mutate, trim, or
// re-serialize them. The body is large enough to take the encoder's
// external-segment (writev by reference) path.
func TestRawPassthroughByteIdentical(t *testing.T) {
	servers := startChain(t, 3, broker.Config{})
	sub, err := Dial(servers[2].ln.Addr().String(), "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub, err := Dial(servers[0].ln.Addr().String(), "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("//leaf")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return servers[0].PRTSize() == 1 })

	var body bytes.Buffer
	body.WriteString("<root attr=\"v\">")
	for i := 0; i < 400; i++ {
		body.WriteString("<leaf>payload text that pushes the body over the external-segment threshold</leaf>")
	}
	body.WriteString("</root>")
	raw := body.Bytes()
	if len(raw) <= 4096 {
		t.Fatalf("test body too small (%d bytes) to exercise the ext path", len(raw))
	}

	if err := pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: raw}); err != nil {
		t.Fatal(err)
	}
	m, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Raw, raw) {
		t.Errorf("raw body mutated in transit: sent %d bytes, received %d", len(raw), len(m.Raw))
	}
}

// diffMessages is one message per frame type with every optional field
// populated — the corpus the two encode paths must agree on.
func diffMessages(t testing.TB) []*broker.Message {
	t.Helper()
	return []*broker.Message{
		{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/inventory/book/title")},
		{Type: broker.MsgSubscribe, XPE: xpath.MustParse(`//book[@lang="en"]/*`)},
		{Type: broker.MsgUnsubscribe, XPE: xpath.MustParse("/inventory//cd")},
		{
			Type:  broker.MsgAdvertise,
			AdvID: "adv-1",
			Adv: advert.NewAdvertisement(
				advert.Sym("inventory"),
				advert.Rep(advert.Sym("book"), advert.Sym("cd")),
			),
		},
		{Type: broker.MsgUnadvertise, AdvID: "adv-1"},
		{
			Type: broker.MsgPublish,
			Pub: xmldoc.Publication{
				DocID:  42,
				PathID: 7,
				Path:   []string{"inventory", "book", "title"},
				Attrs: []map[string]string{
					{"count": "3"},
					{"lang": "en", "id": "b1"},
					nil,
				},
			},
			Stamp:   1234567890,
			TraceID: "trace-abc",
			Hops: []trace.Hop{
				{Broker: "b1", UnixNano: 1700000000000000000, Epoch: 3, Stages: []trace.StageDur{
					{Stage: "decode", Nanos: 1200},
					{Stage: "match", Nanos: 340},
				}},
				{Broker: "b2", UnixNano: 1700000000000500000, Epoch: 9},
			},
		},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 43}, Raw: []byte(`<inventory count="3"><book lang="en"><title>Routing</title></book><cd/></inventory>`)},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 44}, Raw: []byte(`<inventory><book/></inventory>`)},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 45}, Raw: bytes.Repeat([]byte("x"), 4096)},
		{
			Type: broker.MsgResync,
			Resync: &broker.ResyncState{
				Advs: []broker.ResyncAdv{
					{ID: "adv-a", Adv: advert.NewAdvertisement(advert.Sym("inventory"))},
				},
				Subs: []*xpath.XPE{xpath.MustParse("/inventory/book"), xpath.MustParse("//title")},
			},
		},
		{Type: broker.MsgHeartbeat},
		{Type: broker.MsgSubscribeDurable, Durable: "d1", XPE: xpath.MustParse("/inventory/book")},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 46, Path: []string{"inventory", "book"}}, Durable: "d1", Seq: 5},
		{Type: broker.MsgReplayBegin, Durable: "d1", Seq: 3},
		{Type: broker.MsgReplayEnd, Durable: "d1", Seq: 9},
		{Type: broker.MsgAck, Durable: "d1", Seq: 7},
	}
}

// TestDifferentialCodecRoundTrip sends every frame type down the two encode
// paths a deployment uses — a broker link's batching writer (staged frames,
// one vectored write over TCP) and a client's one-frame-per-write Encode —
// and requires the decoded values to be deeply equal, so routing state
// cannot diverge by which side of a connection wrote it.
func TestDifferentialCodecRoundTrip(t *testing.T) {
	msgs := diffMessages(t)

	var direct bytes.Buffer
	enc := wirefmt.NewEncoder(&direct, wirefmt.DefaultLimits)
	for i, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	// The gate holds the writer's first flush until every frame is queued,
	// so the rest go out staged in one batch.
	held := newHeldConn(out)
	held.armed.Store(true)
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, nil, Options{})
	t.Cleanup(s.Close)
	pc := s.newPeerConn(held, wirefmt.NewEncoder(held, wirefmt.DefaultLimits))
	defer pc.shutdown()
	for i, m := range msgs {
		if err := pc.write(m); err != nil {
			t.Fatalf("msg %d: write: %v", i, err)
		}
	}
	close(held.gate)

	in.SetReadDeadline(time.Now().Add(5 * time.Second))
	viaLink := wirefmt.NewDecoder(in, wirefmt.DefaultLimits)
	viaEncode := wirefmt.NewDecoder(&direct, wirefmt.DefaultLimits)
	for i, m := range msgs {
		var got, want broker.Message
		if err := viaEncode.Decode(&want); err != nil {
			t.Fatalf("msg %d: decode of Encode stream: %v", i, err)
		}
		if err := viaLink.Decode(&got); err != nil {
			t.Fatalf("msg %d: decode of link stream: %v", i, err)
		}
		if !reflect.DeepEqual(&want, &got) {
			t.Errorf("msg %d (type %d): encode paths disagree\nEncode: %+v\nlink:   %+v",
				i, m.Type, want, got)
		}
	}
	if b := pc.batches.Load(); b >= int64(len(msgs)) {
		t.Errorf("link writer flushed %d times for %d frames — the batched path went untested", b, len(msgs))
	}
}

// TestHostileBinaryFramesCloseConnection sends a valid preamble followed by
// garbage and requires the server to tear down exactly that connection: the
// frame is counted as bad, the socket is closed from the server side, and no
// reader or writer goroutine is left behind.
func TestHostileBinaryFramesCloseConnection(t *testing.T) {
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, nil, Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	before := runtime.NumGoroutine()
	hello := preamble(t, "evil")
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(hello)
		// A plausible-looking frame: sane length prefix, message kind,
		// publish type, then junk the cursor helpers must reject.
		conn.Write([]byte{0x09, 0x02, byte(broker.MsgPublish), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
		expectServerClose(t, conn)
		conn.Close()
	}

	waitFor(t, func() bool { return s.Health().BadFrames >= 20 })
	// Goroutine count settles back to the pre-connection baseline (the
	// accept loop and broker workers persist; per-connection reader/writer
	// pairs must not).
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}
