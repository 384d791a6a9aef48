package xmlrouter

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// publishAllocBaseline is the seed's allocations per untraced publication
// for the workload below, measured on the pre-instrumentation tree (path
// re-interning, the forwarded message copy, ordered-destination scratch,
// sort machinery). The per-stage span instrumentation must not add to it:
// the span lives on the stack, stage observations are lock-free histogram
// increments, and the flight recorder costs one comparison when healthy. A
// regression here means a heap allocation leaked into the publish path —
// fix the code, do not bump the constant without a matching DESIGN.md note.
const publishAllocBaseline = 9

// TestPublishAllocsPinned pins the untraced publish path's allocations per
// operation, with and without a metrics registry attached (the registry
// arms the stage histograms, so both halves of the measure gate are
// covered).
func TestPublishAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	pub := xmldoc.Publication{Path: []string{"stock", "quote", "price"}}
	run := func(t *testing.T, reg *metrics.Registry) {
		br := broker.New(broker.Config{ID: "b1", Metrics: reg}, func(to string, m *broker.Message) {})
		br.AddClient("sub")
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock//price")}, "sub")

		avg := testing.AllocsPerRun(200, func() {
			br.HandleMessage(&broker.Message{Type: broker.MsgPublish, Pub: pub}, "producer")
		})
		if avg > publishAllocBaseline {
			t.Errorf("untraced publish = %.1f allocs/op, baseline %d — instrumentation leaked onto the hot path",
				avg, publishAllocBaseline)
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

// TestControlAllocsPinned pins the control plane at O(change): a
// subscribe+unsubscribe pair edits the matching table along one expression's
// path, so it must cost the same allocations on a broker holding 2,000
// subscriptions as on one holding 200 (within 10%). A snapshot that copies
// the PRT, the client trees, or a whole shard's automaton per change makes
// the large broker cost about ten times the small one.
func TestControlAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is meaningless under -short's reduced runs")
	}
	for _, shards := range []int{1, 8} {
		small, large := controlPairAllocs(200, shards), controlPairAllocs(2000, shards)
		if large > small*1.1 {
			t.Errorf("shards=%d: subscribe+unsubscribe = %.1f allocs at 2,000 subscriptions vs %.1f at 200 — control-plane cost grows with the table",
				shards, large, small)
		}
	}
}

// controlPairAllocs measures allocations per subscribe+unsubscribe pair of
// fresh expressions on a churnBroker holding size subscriptions.
func controlPairAllocs(size, shards int) float64 {
	br := churnBroker(size, shards)
	fresh := churnXPEs(size, 64, 2)
	i := 0
	return testing.AllocsPerRun(200, func() {
		x := fresh[i%len(fresh)]
		i++
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "n1")
		br.HandleMessage(&broker.Message{Type: broker.MsgUnsubscribe, XPE: x}, "n1")
	})
}
