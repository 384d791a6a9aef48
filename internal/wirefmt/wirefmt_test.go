package wirefmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// mustXPE parses an expression or fails the test.
func mustXPE(t testing.TB, s string) *xpath.XPE {
	t.Helper()
	x, err := xpath.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return x
}

// sampleMessages is one message per frame type, exercising every optional
// field: trace hops with stage timings, attribute maps with nil holes,
// whole documents as raw bodies (one past extThreshold), resync payloads,
// and durable names and sequence numbers.
func sampleMessages(t testing.TB) []*broker.Message {
	t.Helper()
	return []*broker.Message{
		{Type: broker.MsgSubscribe, XPE: mustXPE(t, "/inventory/book/title")},
		{Type: broker.MsgSubscribe, XPE: mustXPE(t, `//book[@lang="en"]/*`)},
		{Type: broker.MsgUnsubscribe, XPE: mustXPE(t, "/inventory//cd")},
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
		{
			Type: broker.MsgPublish,
			Pub:  xmldoc.Publication{DocID: 43},
			Raw:  []byte(`<inventory count="3"><book lang="en"><title>Dissemination</title></book><cd/></inventory>`),
		},
		{
			Type: broker.MsgPublish,
			Pub:  xmldoc.Publication{DocID: 44},
			Raw:  []byte(`<inventory><book/></inventory>`),
		},
		{
			Type: broker.MsgPublish,
			Pub:  xmldoc.Publication{DocID: 45},
			Raw:  bytes.Repeat([]byte("x"), 4096), // clears extThreshold
		},
		{
			Type: broker.MsgResync,
			Resync: &broker.ResyncState{
				Advs: []broker.ResyncAdv{
					{ID: "adv-a", Adv: advert.NewAdvertisement(advert.Sym("inventory"))},
					{ID: "adv-b", Adv: advert.NewAdvertisement(advert.Sym("cd"), advert.Rep(advert.Sym("dvd")))},
				},
				Subs: []*xpath.XPE{mustXPE(t, "/inventory/book"), mustXPE(t, "//cd")},
			},
		},
		{Type: broker.MsgHeartbeat},
		{Type: broker.MsgSubscribeDurable, Durable: "d1", XPE: mustXPE(t, "/inventory/book")},
		{
			Type:    broker.MsgPublish,
			Pub:     xmldoc.Publication{DocID: 46, Path: []string{"inventory", "book"}},
			Durable: "d1",
			Seq:     5,
		},
		{Type: broker.MsgReplayBegin, Durable: "d1", Seq: 3},
		{Type: broker.MsgReplayEnd, Durable: "d1", Seq: 9},
		{Type: broker.MsgAck, Durable: "d1", Seq: 7},
	}
}

// fingerprint renders the wire-visible fields of a message so values that
// crossed different codecs can be compared without tripping on unexported
// caches (xpath syms, advert NFAs, broker arrival stamps).
func fingerprint(m *broker.Message) string {
	var b strings.Builder
	fmt.Fprintf(&b, "type=%d advID=%q stamp=%d traceID=%q durable=%q seq=%d\n",
		m.Type, m.AdvID, m.Stamp, m.TraceID, m.Durable, m.Seq)
	if m.XPE != nil {
		fmt.Fprintf(&b, "xpe=%s relative=%v\n", m.XPE.String(), m.XPE.Relative)
		for _, s := range m.XPE.Steps {
			fmt.Fprintf(&b, "  step axis=%d name=%q preds=%q\n", s.Axis, s.Name, s.Preds)
		}
	}
	if m.Adv != nil {
		fmt.Fprintf(&b, "adv=%s\n", m.Adv.String())
	}
	fmt.Fprintf(&b, "pub docID=%d pathID=%d path=%q\n", m.Pub.DocID, m.Pub.PathID, m.Pub.Path)
	for i, am := range m.Pub.Attrs {
		if am == nil {
			fmt.Fprintf(&b, "attrs[%d]=nil\n", i)
			continue
		}
		fmt.Fprintf(&b, "attrs[%d]=%d{", i, len(am))
		keys := make([]string, 0, len(am))
		for k := range am {
			keys = append(keys, k)
		}
		for i := range keys { // insertion sort: tiny maps
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "%q=%q ", k, am[k])
		}
		b.WriteString("}\n")
	}
	// SymPath is not wire-visible: the decoder derives it from Path, so only
	// a disagreement between the two shows.
	if m.Pub.SymPath != nil && !reflect.DeepEqual(m.Pub.SymPath, symtab.LookupPath(m.Pub.Path)) {
		fmt.Fprintf(&b, "sympath=%v disagrees with path\n", m.Pub.SymPath)
	}
	fmt.Fprintf(&b, "raw=%q\n", m.Raw)
	for _, h := range m.Hops {
		fmt.Fprintf(&b, "hop broker=%q t=%d epoch=%d", h.Broker, h.UnixNano, h.Epoch)
		for _, sd := range h.Stages {
			fmt.Fprintf(&b, " %s=%d", sd.Stage, sd.Nanos)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestRoundTripAllFrameTypes(t *testing.T) {
	for i, m := range sampleMessages(t) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, DefaultLimits)
		if err := enc.Encode(m); err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
		dec := NewDecoder(&buf, DefaultLimits)
		var got broker.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("msg %d: Decode: %v", i, err)
		}
		if want, have := fingerprint(m), fingerprint(&got); want != have {
			t.Errorf("msg %d round-trip mismatch:\nsent:\n%s\ngot:\n%s", i, want, have)
		}
	}
}

// TestRoundTripSharedStream runs all samples through ONE encoder/decoder
// pair so dictionary reuse across frames is exercised: the second reference
// to any symbol must resolve through the dictionary built by earlier frames.
func TestRoundTripSharedStream(t *testing.T) {
	msgs := sampleMessages(t)
	// Twice over: second pass is fully dictionary-warm.
	msgs = append(msgs, sampleMessages(t)...)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for i, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
	}
	dec := NewDecoder(&buf, DefaultLimits)
	for i, m := range msgs {
		var got broker.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("msg %d: Decode: %v", i, err)
		}
		if want, have := fingerprint(m), fingerprint(&got); want != have {
			t.Errorf("msg %d shared-stream mismatch:\nsent:\n%s\ngot:\n%s", i, want, have)
		}
	}
	if enc.DictLen() != dec.DictLen() {
		t.Errorf("dictionary drift: encoder %d symbols, decoder %d", enc.DictLen(), dec.DictLen())
	}
	if dec.DictLen() == 0 {
		t.Error("no symbols interned — dictionary path untested")
	}
}

// TestBatchQueueFlush checks that a multi-message batch produces one
// decodable stream and that Flush reports the bytes written.
func TestBatchQueueFlush(t *testing.T) {
	msgs := sampleMessages(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	for i, m := range msgs {
		if err := enc.Queue(m); err != nil {
			t.Fatalf("msg %d: Queue: %v", i, err)
		}
	}
	n, err := enc.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Flush reported %d bytes, wrote %d", n, buf.Len())
	}
	if enc.Frames != int64(len(msgs)) {
		t.Errorf("Frames = %d, queued %d", enc.Frames, len(msgs))
	}
	dec := NewDecoder(&buf, DefaultLimits)
	for i, m := range msgs {
		var got broker.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("msg %d: Decode: %v", i, err)
		}
		if want, have := fingerprint(m), fingerprint(&got); want != have {
			t.Errorf("msg %d batch mismatch:\nsent:\n%s\ngot:\n%s", i, want, have)
		}
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
}

// TestQueueErrorRollsBack checks that a rejected message leaves the batch
// exactly as it was: earlier queued frames still decode, the bad one leaves
// no partial bytes.
func TestQueueErrorRollsBack(t *testing.T) {
	good := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 1, Path: []string{"a"}}}
	bad := &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: 2, Path: make([]string, MaxPath+1)}}
	for i := range bad.Pub.Path {
		bad.Pub.Path[i] = "x"
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	if err := enc.Queue(good); err != nil {
		t.Fatalf("Queue(good): %v", err)
	}
	if err := enc.Queue(bad); err == nil {
		t.Fatal("Queue(bad) accepted an over-limit path")
	}
	if err := enc.Queue(good); err != nil {
		t.Fatalf("Queue(good) after rollback: %v", err)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	dec := NewDecoder(&buf, DefaultLimits)
	for i := 0; i < 2; i++ {
		var got broker.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("Decode %d after rollback: %v", i, err)
		}
		if got.Pub.DocID != 1 {
			t.Errorf("Decode %d: DocID = %d, want 1", i, got.Pub.DocID)
		}
	}
	var extra broker.Message
	if err := dec.Decode(&extra); err != io.EOF {
		t.Errorf("stream should end after 2 messages, got %v", err)
	}
}

// TestEncoderRejects pins the encoder-side bounds: over-limit values never
// reach the wire.
func TestEncoderRejects(t *testing.T) {
	cases := []struct {
		name string
		m    *broker.Message
	}{
		{"nil xpe", &broker.Message{Type: broker.MsgSubscribe}},
		{"nil adv", &broker.Message{Type: broker.MsgAdvertise, AdvID: "a"}},
		{"nil resync", &broker.Message{Type: broker.MsgResync}},
		{"unknown type", &broker.Message{Type: broker.MsgType(99)}},
		{"huge raw", &broker.Message{Type: broker.MsgPublish, Raw: make([]byte, MaxRawDoc+1)}},
		{"long symbol", &broker.Message{Type: broker.MsgUnadvertise, AdvID: strings.Repeat("x", MaxName+1)}},
		{"negative stage", &broker.Message{Type: broker.MsgPublish, TraceID: "t",
			Hops: []trace.Hop{{Broker: "b", Stages: []trace.StageDur{{Stage: "s", Nanos: -1}}}}}},
		{"huge stage", &broker.Message{Type: broker.MsgPublish, TraceID: "t",
			Hops: []trace.Hop{{Broker: "b", Stages: []trace.StageDur{{Stage: "s", Nanos: MaxStageNanos + 1}}}}}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := NewEncoder(&buf, DefaultLimits).Encode(tc.m); err == nil {
			t.Errorf("%s: encoder accepted it", tc.name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: rejected message leaked %d bytes to the writer", tc.name, buf.Len())
		}
	}
}

// corrupt builds one valid publish frame and returns its bytes (dictionary
// frame included) for mutation tests.
func validStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	if err := enc.Encode(&broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book"}},
	}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestDecoderRejectsHostileInput pins the decoder against the attacks the
// fuzz target searches for: each must produce an error, never a panic or a
// huge allocation.
func TestDecoderRejectsHostileInput(t *testing.T) {
	decode := func(b []byte) error {
		var m broker.Message
		return NewDecoder(bytes.NewReader(b), DefaultLimits).Decode(&m)
	}
	t.Run("empty frame", func(t *testing.T) {
		if err := decode([]byte{0x00}); err == nil {
			t.Error("accepted zero-length frame")
		}
	})
	t.Run("oversize frame length", func(t *testing.T) {
		b := appendUvarint(nil, uint64(MaxFrame)+1)
		if err := decode(b); err == nil {
			t.Error("accepted oversize frame length")
		}
	})
	t.Run("declared length never sent", func(t *testing.T) {
		// 1MB declared, 3 bytes sent: must error on EOF, not block a
		// gigantic allocation on the declaration.
		b := appendUvarint(nil, 1<<20)
		b = append(b, frameMsg, byte(broker.MsgHeartbeat), 0)
		if err := decode(b); err == nil {
			t.Error("accepted truncated frame")
		}
	})
	t.Run("unknown frame kind", func(t *testing.T) {
		if err := decode([]byte{1, 0x7f}); err == nil {
			t.Error("accepted unknown frame kind")
		}
	})
	t.Run("unknown dictionary id", func(t *testing.T) {
		// Unadvertise referencing symbol 5 with an empty dictionary.
		pl := []byte{frameMsg, byte(broker.MsgUnadvertise), 5}
		b := appendUvarint(nil, uint64(len(pl)))
		if err := decode(append(b, pl...)); err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Errorf("unknown id: err = %v", err)
		}
	})
	t.Run("dictionary gap", func(t *testing.T) {
		// Extension starting at id 7 when the dictionary is empty.
		pl := []byte{frameDict, 7, 1, 1, 'a'}
		b := appendUvarint(nil, uint64(len(pl)))
		if err := decode(append(b, pl...)); err == nil || !strings.Contains(err.Error(), "dictionary") {
			t.Errorf("gap: err = %v", err)
		}
	})
	t.Run("hostile element count", func(t *testing.T) {
		// A publish declaring 2^32 path elements inside a 16-byte frame.
		pl := []byte{frameMsg, byte(broker.MsgPublish), 0, 1, 0, 0}
		pl = appendUvarint(pl, 1<<32)
		b := appendUvarint(nil, uint64(len(pl)))
		if err := decode(append(b, pl...)); err == nil {
			t.Error("accepted 2^32-element path declaration")
		}
	})
	t.Run("trailing garbage in frame", func(t *testing.T) {
		pl := []byte{frameMsg, byte(broker.MsgHeartbeat), 0xde, 0xad}
		b := appendUvarint(nil, uint64(len(pl)))
		if err := decode(append(b, pl...)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("trailing garbage: err = %v", err)
		}
	})
	t.Run("every truncation point", func(t *testing.T) {
		full := validStream(t)
		for i := 0; i < len(full); i++ {
			var m broker.Message
			err := NewDecoder(bytes.NewReader(full[:i]), DefaultLimits).Decode(&m)
			if err == nil {
				t.Fatalf("accepted stream truncated at %d/%d", i, len(full))
			}
		}
	})
	t.Run("every single-byte corruption", func(t *testing.T) {
		full := validStream(t)
		for i := 0; i < len(full); i++ {
			for _, delta := range []byte{1, 0x80, 0xff} {
				b := append([]byte(nil), full...)
				b[i] ^= delta
				var m broker.Message
				dec := NewDecoder(bytes.NewReader(b), DefaultLimits)
				// Either an error or a successful (differently-valued)
				// decode is fine; panics and runaway allocation are not.
				_ = dec.Decode(&m)
			}
		}
	})
}

// TestDecoderReuse pins the steady-state contract: decoding into a reused
// message on a dictionary-warm stream performs zero allocations for
// path-only publications.
func TestDecoderReuse(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book", "title"}},
	}
	const rounds = 50
	for i := 0; i < rounds; i++ {
		m.Pub.DocID = uint64(i)
		if err := enc.Encode(m); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	dec := NewDecoder(&buf, DefaultLimits)
	var got broker.Message
	if err := dec.Decode(&got); err != nil { // warm: dictionary + slices
		t.Fatalf("Decode: %v", err)
	}
	allocs := testing.AllocsPerRun(rounds-2, func() {
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("Decode: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state decode allocates %.1f/op, want 0", allocs)
	}
}

// TestResetKeepsDictionary pins Decoder.Reset semantics: swapping the byte
// source keeps the symbol dictionary, so a dictionary-warm frame decodes
// from a fresh reader — with or without the caller's own bufio wrapping.
func TestResetKeepsDictionary(t *testing.T) {
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 9, Path: []string{"inventory", "book"}},
	}
	var warm, frame bytes.Buffer
	enc := NewEncoder(io.MultiWriter(&warm, &frame), DefaultLimits)
	if err := enc.Encode(m); err != nil { // dictionary frame + message
		t.Fatalf("Encode: %v", err)
	}
	frame.Reset()
	if err := enc.Encode(m); err != nil { // dictionary-warm frame only
		t.Fatalf("Encode: %v", err)
	}
	dec := NewDecoder(&warm, DefaultLimits)
	var got broker.Message
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("warm Decode: %v", err)
	}
	for _, r := range []io.Reader{
		bytes.NewReader(frame.Bytes()),
		bufio.NewReader(bytes.NewReader(frame.Bytes())),
	} {
		dec.Reset(r)
		got = broker.Message{}
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("Decode after Reset: %v", err)
		}
		if got.Pub.DocID != 9 || !reflect.DeepEqual(got.Pub.Path, m.Pub.Path) {
			t.Errorf("after Reset got %+v, want %+v", got.Pub, m.Pub)
		}
	}
}

// TestPendingTracksQueue pins the batching writer's byte accounting:
// Pending grows with queued frames (including the dictionary extension of a
// first-seen symbol) and returns to zero after Flush.
func TestPendingTracksQueue(t *testing.T) {
	enc := NewEncoder(io.Discard, DefaultLimits)
	if got := enc.Pending(); got != 0 {
		t.Fatalf("Pending on fresh encoder = %d, want 0", got)
	}
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book"}},
	}
	if err := enc.Queue(m); err != nil {
		t.Fatalf("Queue: %v", err)
	}
	first := enc.Pending()
	if first == 0 {
		t.Fatal("Pending after Queue = 0, want > 0 (message + dictionary extension)")
	}
	if err := enc.Queue(m); err != nil {
		t.Fatalf("Queue: %v", err)
	}
	if second := enc.Pending(); second <= first {
		t.Errorf("Pending after second Queue = %d, want > %d", second, first)
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := enc.Pending(); got != 0 {
		t.Errorf("Pending after Flush = %d, want 0", got)
	}
}

// TestEncoderSteadyStateAllocs pins the encoder side of the same contract.
func TestEncoderSteadyStateAllocs(t *testing.T) {
	enc := NewEncoder(io.Discard, DefaultLimits)
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book", "title"}},
	}
	if err := enc.Encode(m); err != nil { // warm: dictionary + scratch
		t.Fatalf("Encode: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state encode allocates %.1f/op, want 0", allocs)
	}
}

func TestEstimateSizeTracksEncoding(t *testing.T) {
	for i, m := range sampleMessages(t) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, DefaultLimits)
		if err := enc.Encode(m); err != nil {
			t.Fatalf("msg %d: Encode: %v", i, err)
		}
		est := EstimateSize(m)
		// Cold encoding carries the dictionary strings the estimate assumes
		// are warm, so actual ≥ estimate is normal on frame one; the
		// estimate must still be within 4× either way.
		if est <= 0 {
			t.Errorf("msg %d: estimate %d ≤ 0", i, est)
		}
		if actual := buf.Len(); est > 4*actual || actual > 4*est+64 {
			t.Errorf("msg %d: estimate %d vs actual %d — off by more than 4×", i, est, actual)
		}
	}
}

func TestEstimateSizeWarm(t *testing.T) {
	// On a warm link the estimate should be close to the real frame size.
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 9, Path: []string{"inventory", "book", "title"}},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, DefaultLimits)
	if err := enc.Encode(m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	buf.Reset()
	if err := enc.Encode(m); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	warm := buf.Len()
	est := EstimateSize(m)
	if diff := est - warm; diff < -8 || diff > 8 {
		t.Errorf("warm frame %d bytes, estimate %d — drifted past ±8", warm, est)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), 1<<63 - 1, -1 << 63} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, got)
		}
	}
}

func TestDictLimitEnforced(t *testing.T) {
	lim := DefaultLimits
	lim.MaxDict = 4
	enc := NewEncoder(io.Discard, lim)
	var err error
	for i := 0; i < 6 && err == nil; i++ {
		err = enc.Encode(&broker.Message{
			Type: broker.MsgPublish,
			Pub:  xmldoc.Publication{Path: []string{fmt.Sprintf("el%d", i)}},
		})
	}
	if err == nil {
		t.Error("encoder never hit MaxDict=4")
	}

	// Decoder side: a peer declaring past the limit loses the link.
	var pl []byte
	pl = append(pl, frameDict, 0)
	pl = appendUvarint(pl, 5)
	for i := 0; i < 5; i++ {
		pl = append(pl, 1, byte('a'+i))
	}
	b := appendUvarint(nil, uint64(len(pl)))
	var m broker.Message
	if err := NewDecoder(bytes.NewReader(append(b, pl...)), lim).Decode(&m); err == nil {
		t.Error("decoder accepted a dictionary past MaxDict")
	}
}

func TestDeepEqualRoundTripDocs(t *testing.T) {
	// A publisher holding a tree sends its Marshal; the subscriber parses the
	// delivered bytes. Attrs order, text and children must reconstruct
	// exactly across the wire crossing.
	doc, err := xmldoc.Parse([]byte(`<a x="1" y="2"><b>text</b><c><d/></c>tail</a>`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var buf bytes.Buffer
	if err := NewEncoder(&buf, DefaultLimits).Encode(&broker.Message{
		Type: broker.MsgPublish, Raw: doc.Marshal(),
	}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got broker.Message
	if err := NewDecoder(&buf, DefaultLimits).Decode(&got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	tree, err := xmldoc.Parse(got.Raw)
	if err != nil {
		t.Fatalf("Parse delivered bytes: %v", err)
	}
	if !reflect.DeepEqual(doc.Root, tree.Root) {
		t.Errorf("document tree not deeply equal:\nsent %#v\ngot  %#v", doc.Root, tree.Root)
	}
}

func BenchmarkWireEncode(b *testing.B) {
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book", "title"}},
	}
	enc := NewEncoder(io.Discard, DefaultLimits)
	if err := enc.Encode(m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecode(b *testing.B) {
	m := &broker.Message{
		Type: broker.MsgPublish,
		Pub:  xmldoc.Publication{DocID: 1, Path: []string{"inventory", "book", "title"}},
	}
	var one bytes.Buffer
	enc := NewEncoder(&one, DefaultLimits)
	if err := enc.Encode(m); err != nil { // dictionary frame + message
		b.Fatal(err)
	}
	warmDict := append([]byte(nil), one.Bytes()...)
	one.Reset()
	if err := enc.Encode(m); err != nil { // warm frame only
		b.Fatal(err)
	}
	frame := append([]byte(nil), one.Bytes()...)

	dec := NewDecoder(bytes.NewReader(warmDict), DefaultLimits)
	var got broker.Message
	if err := dec.Decode(&got); err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		dec.Reset(r)
		if err := dec.Decode(&got); err != nil {
			b.Fatal(err)
		}
	}
}
