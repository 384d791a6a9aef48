package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// fuzzServer starts a listening server for a fuzz target.
func fuzzServer(f *testing.F) string {
	cfg := broker.Config{}
	cfg.ID = "b1"
	s := NewServerOptions(cfg, nil, Options{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return addr
}

// fuzzSend writes prefix then data on a fresh connection and hangs up.
func fuzzSend(t *testing.T, addr string, prefix, data []byte) {
	// Bounded dial: thousands of rapid-fire connections can fill the accept
	// queue, and an unbounded Dial then blocks for the OS connect timeout
	// (minutes) — long enough for the fuzz coordinator to declare the worker
	// hung.
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Skip("dial failed; nothing to exercise")
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write(prefix)
	conn.Write(data)
	// Closing hands the server an EOF after our bytes; it processes every
	// complete frame first. A server-side panic aborts this whole process
	// and fails the run — that is the assertion.
	conn.Close()
}

// fuzzFrames is a valid binary frame sequence built with the real encoder,
// so seed corpora start structurally deep (dictionary frames, symbol
// references, raw document bodies).
func fuzzFrames(f *testing.F) []byte {
	var buf bytes.Buffer
	enc := wirefmt.NewEncoder(&buf, wirefmt.DefaultLimits)
	for _, m := range []*broker.Message{
		{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/a/b")},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 1, Path: []string{"a", "b"}}},
		{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 2}, Raw: []byte(`<stock><quote s="ACME"><price>42</price></quote></stock>`)},
	} {
		if err := enc.Encode(m); err != nil {
			f.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzFrameDecode throws arbitrary byte streams at a live server's wire
// protocol from the first byte: the preamble, then frames. The invariant is
// process survival: whatever a connection opens with — a bad or truncated
// preamble, an old build's gob hello, or a valid session with damage after
// it — the server must at worst close that connection. A panic anywhere
// (preamble check, decoder, broker matching) fails the run: the read loop
// re-raises what it recovers in this package's tests (repanic_test.go).
func FuzzFrameDecode(f *testing.F) {
	hello := preamble(f, "fuzz")
	valid := append(bytes.Clone(hello), fuzzFrames(f)...)
	f.Add(valid)
	f.Add(hello[:len(hello)/2]) // truncated mid-preamble
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'x'
	f.Add(badMagic)
	badVersion := bytes.Clone(valid)
	badVersion[len("XRW")]++
	f.Add(badVersion)
	f.Add(overLongHello(f))
	f.Add(gobHello(f)) // what a build from before the preamble sends
	f.Add([]byte{})

	addr := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSend(t, addr, nil, data)
	})
}

// FuzzBinaryFrameDecode is FuzzFrameDecode past the handshake: a valid
// preamble, then arbitrary bytes where frames belong. Truncated batches,
// hostile varint lengths, unknown dictionary ids, and corrupt frames must at
// worst cost the connection. The wirefmt package fuzzes its decoder in
// isolation; this target proves the transport around it (readLoop, bad-frame
// accounting, connection teardown) holds up too.
func FuzzBinaryFrameDecode(f *testing.F) {
	session := fuzzFrames(f)
	f.Add(session)
	f.Add(session[:len(session)/2]) // truncated mid-batch
	corrupt := bytes.Clone(session)
	for i := range corrupt {
		if i%5 == 0 {
			corrupt[i] ^= 0x40
		}
	}
	f.Add(corrupt)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}) // hostile varint length
	f.Add([]byte{0x03, 0x01, 0x63, 0x00})             // dict frame with a gap
	f.Add([]byte{0x02, 0x02, 0x07})                   // message referencing an unknown id
	f.Add([]byte{})

	// Constant across iterations, so it is encoded once.
	hello := preamble(f, "fuzz")
	addr := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSend(t, addr, hello, data)
	})
}
