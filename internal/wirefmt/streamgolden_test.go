package wirefmt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

var updateStreamGolden = flag.Bool("update-stream-golden", false, "rewrite "+streamGoldenFile+" from the current encoder")

// streamGoldenFile holds the frames of goldenStream, encoded one message per
// write by one encoder, as the layout stood when batches were still built
// as vectored writes. The encoder must keep writing it byte for byte,
// however the frames fall into writes: the wire format has no version for
// it.
const streamGoldenFile = "testdata/stream.golden"

// goldenStream is the mixed message sequence of the stream golden: control
// frames of every kind, path publications with and without attributes, raw
// bodies under and over 256 bytes, traced hops with stage timings, durable
// stamps, stamps that rise, repeat and fall, and element names first seen
// mid-stream. Every attribute map holds one pair, so the encoding does not
// depend on map iteration order.
func goldenStream(t testing.TB) []*broker.Message {
	t.Helper()
	pub := func(doc uint64, stamp int64, path ...string) *broker.Message {
		return &broker.Message{Type: broker.MsgPublish, Stamp: stamp,
			Pub: xmldoc.Publication{DocID: doc, PathID: int(doc % 5), Path: path}}
	}
	withAttrs := pub(2, 1_700_000_000_000_001_000, "inventory", "book", "title")
	withAttrs.Pub.Attrs = []map[string]string{nil, {"lang": "en"}, nil}
	holes := pub(3, 1_700_000_000_000_001_000, "inventory", "cd")
	holes.Pub.Attrs = []map[string]string{nil, nil}
	small := pub(4, 1_700_000_000_000_000_500)
	small.Raw = []byte(`<inventory count="3"><book lang="en"><title>Dissemination</title></book></inventory>`)
	large := pub(5, 1_700_000_000_000_002_000)
	large.Raw = []byte("<inventory>" + strings.Repeat("<cd>routing</cd>", 40) + "</inventory>")
	traced := pub(6, 1_700_000_000_000_003_000, "inventory", "book", "price")
	traced.TraceID = "trace-7"
	traced.Hops = []trace.Hop{
		{Broker: "b1", UnixNano: 1_700_000_000_000_003_100, Epoch: 4, Stages: []trace.StageDur{
			{Stage: trace.StageDecode, Nanos: 1200}, {Stage: trace.StageMatch, Nanos: 340}}},
		{Broker: "b2", UnixNano: 1_700_000_000_000_003_900, Epoch: 11},
	}
	durable := pub(7, 1_700_000_000_000_003_000, "inventory", "book")
	durable.Durable, durable.Seq = "d1", 5
	tracedRaw := pub(8, 1_700_000_000_000_004_000)
	tracedRaw.Raw = large.Raw
	tracedRaw.TraceID = "trace-8"
	tracedRaw.Hops = []trace.Hop{{Broker: "b3", UnixNano: 1_700_000_000_000_004_100, Epoch: 1,
		Stages: []trace.StageDur{{Stage: trace.StageFilter, Nanos: 80}}}}
	durableRaw := pub(9, 1_700_000_000_000_004_000)
	durableRaw.Raw = small.Raw
	durableRaw.Durable, durableRaw.Seq = "d2", 1
	late := pub(10, 1_699_999_999_999_999_000, "catalog", "dvd", "region")
	late.Pub.Attrs = []map[string]string{{"code": "2"}, nil, {"kind": "pal"}}

	return []*broker.Message{
		{Type: broker.MsgSubscribe, XPE: mustXPE(t, "/inventory/book/title")},
		{Type: broker.MsgAdvertise, AdvID: "adv-1", Adv: advert.NewAdvertisement(
			advert.Sym("inventory"), advert.Rep(advert.Sym("book"), advert.Sym("cd")))},
		pub(1, 1_700_000_000_000_000_000, "inventory", "book", "title"),
		withAttrs,
		holes,
		small,
		large,
		{Type: broker.MsgSubscribe, XPE: mustXPE(t, `//book[@lang="en"]/*`)},
		traced,
		{Type: broker.MsgSubscribeDurable, Durable: "d1", XPE: mustXPE(t, "/inventory/book")},
		durable,
		{Type: broker.MsgHeartbeat},
		tracedRaw,
		durableRaw,
		{Type: broker.MsgReplayBegin, Durable: "d1", Seq: 3},
		{Type: broker.MsgReplayEnd, Durable: "d1", Seq: 9},
		{Type: broker.MsgAck, Durable: "d1", Seq: 7},
		late,
		{Type: broker.MsgUnsubscribe, XPE: mustXPE(t, "/catalog//region")},
		{Type: broker.MsgResync, Resync: &broker.ResyncState{
			Advs: []broker.ResyncAdv{
				{ID: "adv-2", Adv: advert.NewAdvertisement(advert.Sym("catalog"), advert.Rep(advert.Sym("dvd")))},
			},
			Subs: []*xpath.XPE{mustXPE(t, "/catalog/dvd"), mustXPE(t, "//region")},
		}},
		{Type: broker.MsgUnadvertise, AdvID: "adv-1"},
		pub(11, 1_700_000_000_000_005_000, "catalog", "dvd", "title"),
	}
}

// TestStreamGolden pins a whole link stream on the wire: one message per
// Encode, all messages appended into one buffer, and the messages split
// into batches of every size each write the golden bytes, and a decoder
// reading them gets back every message.
func TestStreamGolden(t *testing.T) {
	msgs := goldenStream(t)
	var perMessage bytes.Buffer
	enc := NewEncoder(&perMessage, DefaultLimits)
	for i, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("message %d (%s): %v", i, m, err)
		}
	}
	if *updateStreamGolden {
		if err := os.WriteFile(streamGoldenFile, perMessage.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(streamGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	same := func(how string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			at := 0
			for at < min(len(got), len(want)) && got[at] == want[at] {
				at++
			}
			t.Fatalf("%s: stream differs from %s at byte %d (%d bytes written, %d golden)", how, streamGoldenFile, at, len(got), len(want))
		}
	}
	same("one Encode per message", perMessage.Bytes())
	for size := 1; size <= len(msgs); size++ {
		enc := NewEncoder(nil, DefaultLimits)
		var stream, batch []byte
		for i, m := range msgs {
			if batch, err = enc.Append(batch, m); err != nil {
				t.Fatalf("batches of %d, message %d: %v", size, i, err)
			}
			if (i+1)%size == 0 || i == len(msgs)-1 {
				stream = append(stream, batch...)
				batch = batch[:0]
			}
		}
		same(fmt.Sprintf("batches of %d", size), stream)
	}
	dec := NewDecoder(bytes.NewReader(want), DefaultLimits)
	for i, m := range msgs {
		var got broker.Message
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("message %d (%s): %v", i, m, err)
		}
		if fingerprint(&got) != fingerprint(m) {
			t.Fatalf("message %d:\nsent:\n%s\ngot:\n%s", i, fingerprint(m), fingerprint(&got))
		}
	}
}
