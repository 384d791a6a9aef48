package broker

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func TestStrategyName(t *testing.T) {
	tests := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "noadv+nocov"},
		{Config{UseAdvertisements: true}, "adv+nocov"},
		{Config{UseAdvertisements: true, UseCovering: true}, "adv+cov"},
		{Config{UseCovering: true, Merging: MergePerfect}, "noadv+cov+merge-perfect"},
		{Config{UseAdvertisements: true, UseCovering: true, Merging: MergeImperfect}, "adv+cov+merge-imperfect"},
	}
	for _, tt := range tests {
		if got := tt.cfg.StrategyName(); got != tt.want {
			t.Errorf("StrategyName = %q, want %q", got, tt.want)
		}
	}
}

// TestBrokerInstrumentation checks that an instrumented broker populates
// the registry: match-stage histogram, delivery counters, and table gauges,
// all observable through the exposition text.
func TestBrokerInstrumentation(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := Config{ID: "b1", UseCovering: true, Metrics: reg}
	b := New(cfg, func(string, *Message) {})
	b.AddClient("c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a/b")}, "c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a/*")}, "c1")
	b.HandleMessage(&Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a", "b"}}}, "p1")

	h := reg.Histogram("xbroker_stage_seconds", "", metrics.DefBuckets, "stage", trace.StageMatch)
	if h.Count() != 1 {
		t.Errorf("match histogram count = %d, want 1 (one publication matched)", h.Count())
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`xbroker_stage_seconds_count{stage="match"} 1`,
		`xbroker_deliveries_total 1`,
		`xbroker_prt_subscriptions 2`,
		`xbroker_prt_nodes 2`,
		`xbroker_prt_edges 1`, // "/a/*" covers "/a/b"
		`xbroker_msgs_in_total{type="publish"} 1`,
		`xbroker_msgs_in_total{type="subscribe"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPublishTracing checks hop appending, non-mutation of the received
// frame, and the recorded event's delivery/forward lists.
func TestPublishTracing(t *testing.T) {
	ring := trace.NewRing(8)
	sent := make(map[string][]*Message)
	b := New(Config{ID: "b1", TraceSink: ring}, func(to string, m *Message) {
		sent[to] = append(sent[to], m)
	})
	b.AddNeighbor("b2")
	b.AddClient("c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a/b")}, "c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a")}, "b2")

	in := &Message{
		Type:    MsgPublish,
		Pub:     xmldoc.Publication{Path: []string{"a", "b"}},
		TraceID: "t1",
		Hops:    []trace.Hop{{Broker: "b0", UnixNano: 1}},
	}
	b.HandleMessage(in, "p1")

	if len(in.Hops) != 1 {
		t.Errorf("received frame mutated: hops = %v", in.Hops)
	}
	for _, to := range []string{"c1", "b2"} {
		var msgs []*Message
		for _, m := range sent[to] { // skip the flooded subscribe forwards
			if m.Type == MsgPublish {
				msgs = append(msgs, m)
			}
		}
		if len(msgs) != 1 {
			t.Fatalf("sent to %s: %d publications, want 1", to, len(msgs))
		}
		hops := msgs[0].Hops
		if len(hops) != 2 || hops[0].Broker != "b0" || hops[1].Broker != "b1" {
			t.Errorf("forwarded hop list to %s = %v, want [b0 b1]", to, hops)
		}
	}

	evs := ring.ByID("t1")
	if len(evs) != 1 {
		t.Fatalf("ring has %d events for t1, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Broker != "b1" || ev.From != "p1" {
		t.Errorf("event broker/from = %s/%s", ev.Broker, ev.From)
	}
	if !reflect.DeepEqual(ev.DeliveredTo, []string{"c1"}) {
		t.Errorf("DeliveredTo = %v, want [c1]", ev.DeliveredTo)
	}
	if !reflect.DeepEqual(ev.ForwardedTo, []string{"b2"}) {
		t.Errorf("ForwardedTo = %v, want [b2]", ev.ForwardedTo)
	}
}

// TestUntracedPublishRecordsNothing pins the opt-in contract: without a
// TraceID no event is recorded and the message is forwarded as-is.
func TestUntracedPublishRecordsNothing(t *testing.T) {
	ring := trace.NewRing(8)
	var forwarded *Message
	b := New(Config{ID: "b1", TraceSink: ring}, func(to string, m *Message) { forwarded = m })
	b.AddClient("c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a")}, "c1")
	in := &Message{Type: MsgPublish, Pub: xmldoc.Publication{Path: []string{"a"}}}
	b.HandleMessage(in, "p1")
	if ring.Total() != 0 {
		t.Errorf("untraced publish recorded %d events", ring.Total())
	}
	if forwarded != in {
		t.Error("untraced publish must forward the original message, not a copy")
	}
}

func TestRoutesSnapshot(t *testing.T) {
	b := New(Config{ID: "b1", UseCovering: true}, func(string, *Message) {})
	b.AddNeighbor("b2")
	b.AddClient("c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a/*")}, "c1")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: xpath.MustParse("/a/b")}, "b2")

	rt := b.Routes()
	if rt.Broker != "b1" || rt.Strategy != "noadv+cov" {
		t.Errorf("broker/strategy = %s/%s", rt.Broker, rt.Strategy)
	}
	if !reflect.DeepEqual(rt.Neighbors, []string{"b2"}) || !reflect.DeepEqual(rt.Clients, []string{"c1"}) {
		t.Errorf("neighbors/clients = %v/%v", rt.Neighbors, rt.Clients)
	}
	if len(rt.Subscriptions) != 2 {
		t.Fatalf("subscriptions = %d, want 2", len(rt.Subscriptions))
	}
	byXPE := make(map[string]SubRoute)
	for _, sr := range rt.Subscriptions {
		byXPE[sr.XPE] = sr
	}
	top, ok := byXPE["/a/*"]
	if !ok || top.Parent != "" || !reflect.DeepEqual(top.LastHops, []string{"c1"}) {
		t.Errorf("top-level route = %+v", top)
	}
	child, ok := byXPE["/a/b"]
	if !ok || child.Parent != "/a/*" || !reflect.DeepEqual(child.LastHops, []string{"b2"}) {
		t.Errorf("covered route = %+v", child)
	}
}
