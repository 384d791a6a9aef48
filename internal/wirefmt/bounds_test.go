package wirefmt

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/broker"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// The decoder is the only place the transport validates inbound frames, so
// every wire bound is pinned here, each with its at-cap accept case where
// one exists. Out-of-bound frames come from an encoder built with loose
// limits and are decoded under DefaultLimits, as a link would.

// loose raises every bound the encoder checks well past DefaultLimits.
var loose = func() Limits {
	l := DefaultLimits
	l.MaxSteps *= 4
	l.MaxName *= 4
	l.MaxPath *= 4
	l.MaxHops *= 4
	l.MaxRawDoc *= 4
	l.MaxHopStages *= 4
	l.MaxStageName *= 4
	l.MaxStageNanos *= 4
	return l
}()

// encodeLoose encodes m under the loose limits.
func encodeLoose(t *testing.T, m *broker.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewEncoder(&buf, loose).Encode(m); err != nil {
		t.Fatalf("loose encoder refused the frame: %v", err)
	}
	return buf.Bytes()
}

// decodeDefault decodes one message from b under DefaultLimits.
func decodeDefault(b []byte) error {
	var m broker.Message
	return NewDecoder(bytes.NewReader(b), DefaultLimits).Decode(&m)
}

// boundCase is one frame and whether the decoder must accept it. The frame
// is msg encoded under the loose limits, or the literal bytes in frame
// where no encoder would write it at all.
type boundCase struct {
	name  string
	msg   *broker.Message
	frame []byte
	ok    bool
}

func runBoundCases(t *testing.T, cases []boundCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.frame
			if b == nil {
				b = encodeLoose(t, tc.msg)
			}
			err := decodeDefault(b)
			if tc.ok && err != nil {
				t.Fatalf("decoder rejected an in-bound frame: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("decoder accepted a frame it must reject")
			}
		})
	}
}

// frameOf wraps a payload in its length prefix.
func frameOf(payload ...byte) []byte {
	return append(appendUvarint(nil, uint64(len(payload))), payload...)
}

// rawDocOfSize builds a well-formed raw body of exactly n bytes.
func rawDocOfSize(n int) []byte {
	b := make([]byte, 0, n)
	b = append(b, "<a>"...)
	for len(b) < n-len("</a>") {
		b = append(b, 'x')
	}
	return append(b, "</a>"...)
}

// Raw-document publications get exactly one decoder check — the size cap.
// Syntax and the document bounds are the broker's streaming scan's job (it
// validates while routing), so a malformed body decodes; but a body over
// the byte cap, or a frame that also sets the retired tree bit, must not.
func TestDecodeRawPublicationBounds(t *testing.T) {
	runBoundCases(t, []boundCase{
		{name: "raw-ok", msg: &broker.Message{Type: broker.MsgPublish, Raw: []byte("<a><b/></a>")}, ok: true},
		{name: "raw-at-cap", msg: &broker.Message{Type: broker.MsgPublish, Raw: rawDocOfSize(MaxRawDoc)}, ok: true},
		{name: "raw-over-cap", msg: &broker.Message{Type: broker.MsgPublish, Raw: rawDocOfSize(MaxRawDoc + 1)}},
		{name: "raw-malformed-passes", msg: &broker.Message{Type: broker.MsgPublish, Raw: []byte("<a><b></a>")}, ok: true},
		// The flags byte alone condemns it: bit 0 once marked a parsed tree.
		{name: "raw-and-doc", frame: frameOf(frameMsg, byte(broker.MsgPublish), 1<<0|pubFlagRaw)},
	})
}

// A flag bit the decoder does not know would change how the rest of the
// record reads, so it loses the link rather than being skipped. That
// includes the publish bit that once carried a parsed tree: a tree frame
// from a peer that still sends one is refused, not misparsed.
func TestDecodeRejectsUnknownFlags(t *testing.T) {
	// Dictionary symbol 0 is "a".
	dict := frameOf(frameDict, 0, 1, 1, 'a')
	// A publication with an empty path (docID, pathID, stamp, zero
	// elements), followed by body.
	pub := func(flags byte, body ...byte) []byte {
		return frameOf(append([]byte{frameMsg, byte(broker.MsgPublish), flags, 0, 0, 0, 0}, body...)...)
	}
	// A subscription to the one-step expression "a".
	sub := func(flags byte) []byte {
		return frameOf(frameMsg, byte(broker.MsgSubscribe), flags, 1, byte(xpath.Child), 0, 0)
	}
	// A one-element tree <a/> as bit 0 carried it: name, no attributes, no
	// text, no children.
	tree := []byte{0, 0, 0, 0}
	for _, tc := range []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"pub-known-flags", pub(0), true},
		{"pub-bit0-retired-doc", append(bytes.Clone(dict), pub(1<<0, tree...)...), false},
		{"pub-bit7", pub(1 << 7), false},
		{"xpe-relative", append(bytes.Clone(dict), sub(xpeFlagRelative)...), true},
		{"xpe-bit1", append(bytes.Clone(dict), sub(1<<1)...), false},
		{"xpe-bit7", append(bytes.Clone(dict), sub(1<<7)...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeDefault(tc.frame)
			if tc.ok && err != nil {
				t.Fatalf("decoder rejected a frame with known flags: %v", err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "unknown")) {
				t.Fatalf("decoder did not refuse the unknown flag bit: err = %v", err)
			}
		})
	}
}

// A sparse attribute section is na, the count k of non-empty maps, and k
// pairs of (holes skipped, map). Its counts and gaps must stay inside the
// section, and a map it lists must hold a pair.
func TestDecodeSparseAttrBounds(t *testing.T) {
	// Dictionary symbol 0 is "a".
	dict := frameOf(frameDict, 0, 1, 1, 'a')
	// A one-element path "a" whose attribute section is section.
	pub := func(section ...byte) []byte {
		head := []byte{frameMsg, byte(broker.MsgPublish), pubFlagAttrs, 0, 0, 0, 1, 0}
		return append(bytes.Clone(dict), frameOf(append(head, section...)...)...)
	}
	// pair is one attribute: key symbol 0, value "v".
	pair := []byte{0, 1, 'v'}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	runBoundCases(t, []boundCase{
		{name: "one-map", frame: pub(cat([]byte{1, 1, 0, 1}, pair)...), ok: true},
		{name: "holes-only", frame: pub(1, 0), ok: true},
		{name: "empty-section", frame: pub(0, 0), ok: true},
		{name: "second-map-after-a-hole", frame: pub(cat([]byte{3, 2, 0, 1}, pair, []byte{1, 1}, pair)...), ok: true},
		{name: "gap-past-na", frame: pub(cat([]byte{1, 1, 1, 1}, pair)...)},
		{name: "second-gap-past-na", frame: pub(cat([]byte{2, 2, 1, 1}, pair, []byte{0, 1}, pair)...)},
		{name: "k-over-na", frame: pub(cat([]byte{1, 2, 0, 1}, pair, []byte{0, 1}, pair)...)},
		// The listed empty map is followed by a valid one, so only the
		// empty-map check can refuse the frame.
		{name: "empty-attributed-map", frame: pub(2, 2, 0, 0, 0, 1, 0, 3, 'v', 'v', 'v')},
		{name: "na-over-max-path", frame: pub(cat(appendUvarint(nil, MaxPath+1), []byte{0})...)},
	})
}

// Carried trace hops ride every publication frame, stage durations
// included, so a hostile peer can try to smuggle unbounded hop lists,
// oversized stage names, or absurd durations that would poison latency
// aggregation downstream.
func TestDecodeHopStageBounds(t *testing.T) {
	// A full-width but legitimate hop: 16 stages, 1h durations, max-length
	// broker id — everything at the cap exactly.
	atCap := trace.Hop{Broker: strings.Repeat("b", MaxName)}
	for i := 0; i < MaxHopStages; i++ {
		atCap.Stages = append(atCap.Stages, trace.StageDur{
			Stage: strings.Repeat("s", MaxStageName),
			Nanos: MaxStageNanos,
		})
	}
	overStages := trace.Hop{Broker: "b1"}
	for i := 0; i < MaxHopStages+1; i++ {
		overStages.Stages = append(overStages.Stages, trace.StageDur{Stage: "match", Nanos: 1})
	}
	pub := func(hops ...trace.Hop) *broker.Message {
		return &broker.Message{Type: broker.MsgPublish, Raw: []byte("<a/>"), Hops: hops}
	}
	stage := func(name string, nanos int64) trace.Hop {
		return trace.Hop{Broker: "b1", Stages: []trace.StageDur{{Stage: name, Nanos: nanos}}}
	}
	// No encoder writes a negative duration. The hop list closes the frame,
	// so the last byte is the final duration: zigzag(0) becomes zigzag(-1).
	negative := encodeLoose(t, pub(stage("match", 0)))
	negative[len(negative)-1] = 1

	runBoundCases(t, []boundCase{
		{name: "hop-with-stages", msg: pub(trace.Hop{Broker: "b1", Stages: []trace.StageDur{
			{Stage: "decode", Nanos: 1200}, {Stage: "match", Nanos: 50000}}}), ok: true},
		{name: "hop-at-every-cap", msg: pub(atCap), ok: true},
		{name: "hop-broker-over-name-cap", msg: pub(trace.Hop{Broker: strings.Repeat("b", MaxName+1)})},
		{name: "hop-over-stage-count", msg: pub(overStages)},
		{name: "stage-name-over-cap", msg: pub(stage(strings.Repeat("s", MaxStageName+1), 1))},
		{name: "stage-negative-nanos", frame: negative},
		{name: "stage-absurd-nanos", msg: pub(stage("match", MaxStageNanos+1))},
	})
}

// Subscriptions arrive as step lists that never saw the parser; the decoder
// bounds them and holds them to the parser's invariants.
func TestDecodeXPEBounds(t *testing.T) {
	steps := func(n int, name string) *xpath.XPE {
		x := &xpath.XPE{}
		for i := 0; i < n; i++ {
			x.Steps = append(x.Steps, xpath.Step{Axis: xpath.Child, Name: name})
		}
		return x
	}
	sub := func(x *xpath.XPE) *broker.Message { return &broker.Message{Type: broker.MsgSubscribe, XPE: x} }
	invalid := &xpath.XPE{Steps: []xpath.Step{{Axis: xpath.Child, Name: "a b"}}}
	runBoundCases(t, []boundCase{
		{name: "steps-at-cap", msg: sub(steps(MaxSteps, "a")), ok: true},
		{name: "steps-over-cap", msg: sub(steps(MaxSteps+1, "a"))},
		{name: "name-at-cap", msg: sub(steps(1, strings.Repeat("n", MaxName))), ok: true},
		{name: "name-over-cap", msg: sub(steps(1, strings.Repeat("n", MaxName+1)))},
		{name: "no-steps", msg: sub(&xpath.XPE{})},
		{name: "empty-name", msg: sub(steps(1, ""))},
		{name: "invalid-name", msg: sub(invalid)},
		{name: "relative-leading-descendant", msg: sub(&xpath.XPE{Relative: true,
			Steps: []xpath.Step{{Axis: xpath.Descendant, Name: "a"}}})},
		{name: "malformed-predicates", msg: sub(&xpath.XPE{
			Steps: []xpath.Step{{Axis: xpath.Child, Name: "a", Preds: "garbage"}}})},
		{name: "unsubscribe-invalid", msg: &broker.Message{Type: broker.MsgUnsubscribe, XPE: invalid}},
		{name: "durable-invalid", msg: &broker.Message{Type: broker.MsgSubscribeDurable, Durable: "d", XPE: invalid}},
		{name: "resync-invalid", msg: &broker.Message{Type: broker.MsgResync,
			Resync: &broker.ResyncState{Subs: []*xpath.XPE{xpath.MustParse("/a"), invalid}}}},
	})
}

// One document-depth rule: the deepest document a broker accepts as a raw
// body (it scans with stream.WireLimits) and as its deepest path publication
// is the same, MaxPath levels.
func TestDeepestDocumentAgreesAcrossForms(t *testing.T) {
	for _, levels := range []int{MaxPath, MaxPath + 1} {
		raw := []byte(strings.Repeat("<a>", levels) + strings.Repeat("</a>", levels))
		doc, err := xmldoc.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		deepest := doc.Paths()[0]
		if len(deepest) != levels {
			t.Fatalf("deepest path has %d elements, want %d", len(deepest), levels)
		}
		want := levels <= MaxPath
		forms := map[string]bool{
			"raw":  stream.Scan(raw, stream.WireLimits) == nil,
			"path": decodeDefault(encodeLoose(t, &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: deepest}})) == nil,
		}
		for form, ok := range forms {
			if ok != want {
				t.Errorf("%d levels as %s: accepted=%v, want %v", levels, form, ok, want)
			}
		}
	}
}

// The preamble names the dialler; anything else where it belongs is
// rejected before a frame is read.
func TestHello(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEncoder(&buf, DefaultLimits).Hello("b1"); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	id, err := NewDecoder(bytes.NewReader(good), DefaultLimits).Hello()
	if err != nil || id != "b1" {
		t.Fatalf("Hello() = %q, %v; want b1", id, err)
	}
	if err := NewEncoder(io.Discard, DefaultLimits).Hello(strings.Repeat("i", MaxName+1)); err == nil {
		t.Error("encoder wrote an over-long id")
	}
	var long bytes.Buffer
	if err := NewEncoder(&long, loose).Hello(strings.Repeat("i", MaxName+1)); err != nil {
		t.Fatal(err)
	}
	patch := func(i int, v byte) []byte {
		b := bytes.Clone(good)
		b[i] = v
		return b
	}
	for name, b := range map[string][]byte{
		"bad-magic":     patch(0, 'x'),
		"wrong-version": patch(len(helloMagic), helloVersion+1),
		// Version 1 wrote absolute stamps and dense attribute sections.
		"version-1":    patch(len(helloMagic), 1),
		"over-long-id": long.Bytes(),
		"truncated":    good[:len(good)-1],
		"empty":        nil,
	} {
		if _, err := NewDecoder(bytes.NewReader(b), DefaultLimits).Hello(); err == nil {
			t.Errorf("%s: preamble accepted", name)
		}
	}
}
