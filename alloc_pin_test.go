package xmlrouter

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// publishAllocBaseline bounds the allocations of one untraced publication
// at a broker that forwards it to a neighbour and delivers it to a client,
// for each publication form: none. The broker routes on destination ids:
// one automaton run fills a destination set on the handler's stack, and the
// filter pass walks it in name order. A wire-decoded path arrives with its
// symbols resolved by the decoder; a hand-built one is interned into room
// on the handler's stack. The per-stage span instrumentation must not add
// to it: the span lives on the stack, stage observations are lock-free
// histogram increments, and the flight recorder costs one comparison when
// healthy. A regression here means a heap allocation leaked into the
// publish path — fix the code, do not bump the constant without a matching
// DESIGN.md note.
const publishAllocBaseline = 0

// TestPublishAllocsPinned pins the untraced publish path's allocations per
// operation for hand-built path, wire-decoded path and raw publications,
// with and without a metrics registry attached (the registry arms the stage
// histograms, so both halves of the measure gate are covered).
func TestPublishAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	pub := xmldoc.Publication{Path: []string{"stock", "quote", "price"}}
	raw := []byte("<stock><quote><price/></quote></stock>")
	// The path publication as a broker link hands it over: decoded, with the
	// symbols the decoder resolved.
	var frame bytes.Buffer
	if err := wirefmt.NewEncoder(&frame, wirefmt.DefaultLimits).Encode(&broker.Message{Type: broker.MsgPublish, Pub: pub}); err != nil {
		t.Fatal(err)
	}
	decoded := new(broker.Message)
	if err := wirefmt.NewDecoder(&frame, wirefmt.DefaultLimits).Decode(decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Pub.SymPath) != len(pub.Path) {
		t.Fatalf("decoded publication carries SymPath %v for path %q", decoded.Pub.SymPath, decoded.Pub.Path)
	}
	forms := []struct {
		name string
		msg  *broker.Message
	}{
		{"path", &broker.Message{Type: broker.MsgPublish, Pub: pub}},
		{"decoded", decoded},
		{"raw", &broker.Message{Type: broker.MsgPublish, Raw: raw}},
	}
	run := func(t *testing.T, reg *metrics.Registry) {
		for _, f := range forms {
			t.Run(f.name, func(t *testing.T) {
				sent := 0
				br := broker.New(broker.Config{ID: "b1", Metrics: reg}, func(to string, m *broker.Message) {
					if m.Type == broker.MsgPublish {
						sent++
					}
				})
				br.AddNeighbor("n1")
				br.AddClient("sub")
				br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock//price")}, "sub")
				br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock")}, "n1")
				avg := testing.AllocsPerRun(200, func() { br.HandleMessage(f.msg, "producer") })
				if sent == 0 || sent%2 != 0 {
					t.Fatalf("%d emissions: want one forward and one delivery per publication", sent)
				}
				if avg > publishAllocBaseline {
					t.Errorf("untraced %s publish = %.1f allocs/op, baseline %d — a heap allocation leaked onto the hot path",
						f.name, avg, publishAllocBaseline)
				}
			})
		}
	}
	t.Run("no-metrics", func(t *testing.T) { run(t, nil) })
	t.Run("with-metrics", func(t *testing.T) { run(t, metrics.NewRegistry()) })

	// The binary wire codec is pinned to ZERO allocations per publication at
	// steady state, both directions: the per-link symbol dictionary is warm
	// after the first message, the encoder reuses its batch buffers, and the
	// decoder reuses its frame buffer and the caller's message capacities.
	// Any regression here puts a per-message allocation on every broker hop.
	t.Run("wire-encode", func(t *testing.T) {
		m := &broker.Message{Type: broker.MsgPublish, Pub: pub, Stamp: 1}
		enc := wirefmt.NewEncoder(io.Discard, wirefmt.DefaultLimits)
		if err := enc.Encode(m); err != nil { // warm the dictionary
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			if err := enc.Encode(m); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("steady-state wire encode = %.1f allocs/op, want 0", avg)
		}
	})
	t.Run("wire-decode", func(t *testing.T) {
		m := &broker.Message{Type: broker.MsgPublish, Pub: pub, Stamp: 1}
		var warm, frame bytes.Buffer
		enc := wirefmt.NewEncoder(io.MultiWriter(&warm, &frame), wirefmt.DefaultLimits)
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		frame.Reset() // keep only the dictionary-warm frame bytes
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		dec := wirefmt.NewDecoder(&warm, wirefmt.DefaultLimits)
		var got broker.Message
		if err := dec.Decode(&got); err != nil { // consume the dict frame
			t.Fatal(err)
		}
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		steady := frame.Bytes()
		r := bytes.NewReader(nil)
		avg := testing.AllocsPerRun(200, func() {
			r.Reset(steady)
			dec.Reset(r)
			if err := dec.Decode(&got); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("steady-state wire decode = %.1f allocs/op, want 0", avg)
		}
	})
}

// TestWireDecodeFreshMessageAllocs pins what the transport pays per frame:
// Server.readLoop and Client.readLoop decode every frame into a fresh
// broker.Message, which the broker may keep and forward, so no capacity is
// ever recycled. The path and its resolved symbols are cut from the
// decoder's blocks, so they cost nothing per frame; every other
// variable-length field costs one exactly sized allocation — never
// append's growth steps.
func TestWireDecodeFreshMessageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	path := []string{"nitf", "body", "body.content", "block", "p", "em", "a"}
	attrs := make([]map[string]string, len(path))
	attrs[3] = map[string]string{"id": "b7"}
	stages := []trace.StageDur{{Stage: trace.StageDecode, Nanos: 10}, {Stage: trace.StageMatch, Nanos: 20}}
	cases := []struct {
		name string
		m    *broker.Message
		// want counts the allocations: the Message, then one per present
		// field other than the path.
		want int
	}{
		// The Message alone: path and symbols come from the blocks.
		{"path", &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path}}, 1},
		// The Message alone: an attribute section of holes only decodes to
		// the shared empty window.
		{"path+nil-attrs", &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path, Attrs: make([]map[string]string, len(path))}}, 1},
		// Message, attrs slice, the one attribute map (the runtime's map
		// header and its first slot group) and its value string.
		{"path+attrs", &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path, Attrs: attrs}}, 1 + 1 + 2 + 1},
		// Message, trace id string, hops slice, and each hop's stages.
		{"traced", &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{Path: path}, TraceID: "t-1",
			Hops: []trace.Hop{{Broker: "b1", Stages: stages}, {Broker: "b2", Stages: stages}, {Broker: "b3", Stages: stages}}},
			1 + 1 + 1 + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var warm, frame bytes.Buffer
			enc := wirefmt.NewEncoder(io.MultiWriter(&warm, &frame), wirefmt.DefaultLimits)
			if err := enc.Encode(tc.m); err != nil {
				t.Fatal(err)
			}
			frame.Reset() // keep only the dictionary-warm frame bytes
			if err := enc.Encode(tc.m); err != nil {
				t.Fatal(err)
			}
			dec := wirefmt.NewDecoder(&warm, wirefmt.DefaultLimits)
			for i := 0; i < 2; i++ { // the dictionary frame, then the message
				if err := dec.Decode(new(broker.Message)); err != nil {
					t.Fatal(err)
				}
			}
			steady := frame.Bytes()
			r := bytes.NewReader(nil)
			var got *broker.Message
			avg := testing.AllocsPerRun(200, func() {
				r.Reset(steady)
				dec.Reset(r)
				got = new(broker.Message)
				if err := dec.Decode(got); err != nil {
					t.Fatal(err)
				}
			})
			if len(got.Pub.Path) != len(path) || len(got.Hops) != len(tc.m.Hops) {
				t.Fatalf("decoded %d path elements and %d hops, sent %d and %d", len(got.Pub.Path), len(got.Hops), len(path), len(tc.m.Hops))
			}
			if avg > float64(tc.want) {
				t.Errorf("fresh-message decode = %.1f allocs/op, want at most %d (the Message plus one per field beside the path)", avg, tc.want)
			}
		})
	}
}

// TestControlAllocsPinned pins the control plane at O(change): a
// subscribe+unsubscribe pair edits the matching table along one expression's
// path, so it must cost the same allocations on a broker holding 2,000
// subscriptions as on one holding 200 (within 10%). A snapshot that copies
// the PRT, the client trees, or the whole automaton per change makes
// the large broker cost about ten times the small one.
func TestControlAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	small, large := controlPairAllocs(200), controlPairAllocs(2000)
	if large > small*1.1 {
		t.Errorf("subscribe+unsubscribe = %.1f allocs at 2,000 subscriptions vs %.1f at 200 — control-plane cost grows with the table",
			large, small)
	}
}

// controlPairAllocs measures allocations per subscribe+unsubscribe pair of
// fresh expressions on a churnBroker holding size subscriptions.
func controlPairAllocs(size int) float64 {
	br := churnBroker(size)
	fresh := churnXPEs(size, 64, 2)
	i := 0
	return testing.AllocsPerRun(200, func() {
		x := fresh[i%len(fresh)]
		i++
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "n1")
		br.HandleMessage(&broker.Message{Type: broker.MsgUnsubscribe, XPE: x}, "n1")
	})
}

// TestSubscribeAllocsFlatInSRT pins the advertisement side of a control
// change at O(change): choosing a subscription's next hops asks each hop's
// advertisement index, which runs the exact overlap check on a handful of
// candidates without allocating. So a subscribe+unsubscribe pair of held-out
// NITF expressions must cost the same allocations on a broker holding all
// 3,692 NITF advertisements from a neighbour as on one holding every tenth
// of them (within 10%). A linear SRT scan whose overlap checks allocate
// makes the large broker cost several times the small one.
func TestSubscribeAllocsFlatInSRT(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	all := experiment.GenerateAdvertisements(dtddata.NITF())
	var tenth []*advert.Advertisement
	for i := 0; i < len(all); i += 10 {
		tenth = append(tenth, all[i])
	}
	fresh := heldOutNITF(tenth, 64)
	small, large := srtPairAllocs(tenth, fresh), srtPairAllocs(all, fresh)
	t.Logf("subscribe+unsubscribe: %.1f allocs at %d advertisements, %.1f at %d", small, len(tenth), large, len(all))
	if large > small*1.1 {
		t.Errorf("subscribe+unsubscribe = %.1f allocs at %d advertisements vs %.1f at %d — next-hop cost grows with the SRT",
			large, len(all), small, len(tenth))
	}
}

// heldOutNITF draws n distinct NITF expressions that overlap one of advs, so
// both brokers of TestSubscribeAllocsFlatInSRT forward each of them to the
// neighbour and differ only in the table they search.
func heldOutNITF(advs []*advert.Advertisement, n int) []*xpath.XPE {
	g := gen.NewXPathGenerator(dtddata.NITF(), 0.2, 0.1, 29)
	g.Relative = 0.1
	seen := make(map[string]bool)
	var out []*xpath.XPE
	for len(out) < n {
		x := g.Generate()
		if seen[x.Key()] {
			continue
		}
		for _, a := range advs {
			if a.Overlaps(x) {
				seen[x.Key()] = true
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// srtPairAllocs measures allocations per subscribe+unsubscribe pair from a
// client on a broker holding advs, advertised by its neighbour.
func srtPairAllocs(advs []*advert.Advertisement, fresh []*xpath.XPE) float64 {
	br := broker.New(broker.Config{ID: "b1", UseAdvertisements: true, UseCovering: true},
		func(to string, m *broker.Message) {})
	br.AddNeighbor("n1")
	br.AddClient("c")
	for i, a := range advs {
		br.HandleMessage(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a}, "n1")
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		x := fresh[i%len(fresh)]
		i++
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "c")
		br.HandleMessage(&broker.Message{Type: broker.MsgUnsubscribe, XPE: x}, "c")
	})
}
