package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admin"
	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/slowlog"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// chain is a running 3-broker TCP chain with admin endpoints — the fixture
// behind the xtop acceptance test and the CI smoke run.
type chain struct {
	servers []*transport.Server
	rings   []*trace.Ring
	admins  []*httptest.Server
	targets []string // admin host:port addresses, b1..b3
	pub     *transport.Client
	sub     *transport.Client
}

// startChain boots b1—b2—b3, connects a publisher to b1 and a subscriber to
// b3, and waits for the control state to settle.
func startChain(t *testing.T) *chain {
	t.Helper()
	const n = 3
	c := &chain{
		servers: make([]*transport.Server, n),
		rings:   make([]*trace.Ring, n),
		admins:  make([]*httptest.Server, n),
		targets: make([]string, n),
	}
	addrs := make([]string, n)
	neighbors := make([]map[string]string, n)
	for i := range neighbors {
		neighbors[i] = make(map[string]string)
	}
	for i := 0; i < n; i++ {
		reg := metrics.NewRegistry()
		c.rings[i] = trace.NewRing(64)
		slow := slowlog.New(time.Nanosecond, 32) // capture everything measurable
		cfg := broker.Config{
			ID:                fmt.Sprintf("b%d", i+1),
			UseAdvertisements: true,
			UseCovering:       true,
			Metrics:           reg,
			TraceSink:         c.rings[i],
			SlowLog:           slow,
		}
		c.servers[i] = transport.NewServer(cfg, neighbors[i])
		addr, err := c.servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(c.servers[i].Close)
		srv := c.servers[i]
		c.admins[i] = httptest.NewServer(admin.Endpoints{
			Metrics: reg,
			Traces:  c.rings[i],
			Routes:  func() any { return srv.Broker().Routes() },
			Slow:    slow,
			Status: &admin.Status{
				Broker:   cfg.ID,
				Started:  time.Now(),
				Registry: reg,
				Links:    func() any { return srv.Links() },
				Queues:   srv.QueueDepths,
				Slow:     slow,
				Table:    func() any { return srv.Broker().TableStatus() },
			},
		}.Handler())
		t.Cleanup(c.admins[i].Close)
		c.targets[i] = strings.TrimPrefix(c.admins[i].URL, "http://")
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			neighbors[i][fmt.Sprintf("b%d", i)] = addrs[i-1]
			c.servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i))
		}
		if i < n-1 {
			neighbors[i][fmt.Sprintf("b%d", i+2)] = addrs[i+1]
			c.servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i+2))
		}
	}

	var err error
	if c.pub, err = transport.Dial(addrs[0], "pub"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.pub.Close)
	if c.sub, err = transport.Dial(addrs[2], "sub"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.sub.Close)

	if err := c.pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: "a1", Adv: advert.MustParse("/stock/quote/price")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "advertisement flood", func() bool { return c.servers[2].SRTSize() == 1 })
	if err := c.sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription propagation", func() bool { return c.servers[0].PRTSize() == 1 })
	return c
}

// TestXtopThreeBrokerChain is the tentpole acceptance test: xtop -once
// -json against a live 3-broker chain reports per-broker stage-latency
// quantiles and link health, and a traced publication's per-hop stage
// durations account for (never exceed) the measured end-to-end latency.
func TestXtopThreeBrokerChain(t *testing.T) {
	c := startChain(t)

	// Drive some untraced load through the whole chain so every broker's
	// stage histograms have observations.
	for i := 0; i < 20; i++ {
		if err := c.pub.Send(&broker.Message{
			Type: broker.MsgPublish,
			Pub:  xmldoc.Publication{DocID: uint64(i), Path: []string{"stock", "quote", "price"}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.sub.WaitDelivery(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// One traced publication, end-to-end latency measured at the subscriber
	// from the frame's own emission stamp (both clocks are this process).
	traceID := trace.NewID()
	if err := c.pub.Send(&broker.Message{
		Type:    broker.MsgPublish,
		Pub:     xmldoc.Publication{DocID: 999, Path: []string{"stock", "quote", "price"}},
		TraceID: traceID,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := c.sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	e2e := time.Now().UnixNano() - got.Stamp
	if len(got.Hops) != 3 {
		t.Fatalf("delivered hop list = %+v, want 3 hops", got.Hops)
	}
	var stageSum int64
	for i, h := range got.Hops {
		if len(h.Stages) == 0 {
			t.Errorf("hop %d (%s) carries no stage durations", i, h.Broker)
		}
		for _, s := range h.Stages {
			if s.Nanos < 0 {
				t.Errorf("hop %d stage %s negative: %d", i, s.Stage, s.Nanos)
			}
		}
		if h.StageNanos(trace.StageMatch) == 0 && h.TotalStageNanos() == 0 {
			t.Errorf("hop %d (%s) all-zero stages", i, h.Broker)
		}
		stageSum += h.TotalStageNanos()
	}
	// The in-broker stage durations are a component of end-to-end latency;
	// they can never exceed it (all timings come from this process's
	// monotonic clock, so only scheduling — not clock skew — separates
	// them). A generous slack absorbs timer granularity.
	if slack := int64(time.Millisecond); stageSum > e2e+slack {
		t.Errorf("hop stage sum %dns exceeds end-to-end %dns", stageSum, e2e)
	}
	if stageSum <= 0 {
		t.Errorf("hop stage sum = %d, want > 0", stageSum)
	}

	// xtop -once -json: machine-readable cluster snapshot.
	var buf bytes.Buffer
	if code := run([]string{"-brokers", strings.Join(c.targets, ","), "-once", "-json"}, &buf); code != 0 {
		t.Fatalf("xtop -once -json exit %d:\n%s", code, buf.String())
	}
	var results []result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("xtop JSON: %v:\n%s", err, buf.String())
	}
	if len(results) != 3 {
		t.Fatalf("xtop reported %d brokers, want 3", len(results))
	}
	sortResults(results)
	for i, r := range results {
		if r.Error != "" || r.Status == nil {
			t.Fatalf("broker %s unreachable: %s", r.Target, r.Error)
		}
		st := r.Status
		if want := fmt.Sprintf("b%d", i+1); st.Broker != want {
			t.Errorf("result %d broker = %s, want %s", i, st.Broker, want)
		}
		// Per-broker stage-latency quantiles: every broker matched
		// publications, so match/filter/enqueue all have counts and
		// non-decreasing quantiles.
		byStage := make(map[string]stageQ)
		for _, s := range st.Stages {
			byStage[s.Stage] = s
		}
		for _, name := range []string{"match", "filter", "enqueue"} {
			s, ok := byStage[name]
			if !ok || s.Count == 0 {
				t.Errorf("%s: stage %q missing or empty: %+v", st.Broker, name, st.Stages)
				continue
			}
			if s.P50 < 0 || s.P90 < s.P50 || s.P99 < s.P90 {
				t.Errorf("%s: stage %q quantiles not monotone: %+v", st.Broker, name, s)
			}
		}
		// decode and flush are transport-side; brokers that received or
		// forwarded over TCP have them.
		if s := byStage["decode"]; s.Count == 0 {
			t.Errorf("%s: decode stage empty: %+v", st.Broker, st.Stages)
		}
		// Link health: ends see 1 up link, the middle sees 2.
		wantLinks := 1
		if i == 1 {
			wantLinks = 2
		}
		up := 0
		for _, l := range st.Links {
			if l.Up {
				up++
			}
		}
		if up != wantLinks {
			t.Errorf("%s: %d links up, want %d (%+v)", st.Broker, up, wantLinks, st.Links)
		}
		// The nanosecond-threshold flight recorder captured publications.
		if st.SlowTotal == 0 {
			t.Errorf("%s: slow_total = 0, want captures with 1ns threshold", st.Broker)
		}
		if st.Epoch == 0 {
			t.Errorf("%s: snapshot epoch = 0, want control-plane epochs", st.Broker)
		}
		// The matching table's status line: the subscription landed in
		// every broker's table, and the line records the snapshot epoch
		// that last changed it — no later than the broker's own epoch.
		tb := st.Table
		if tb == nil {
			t.Fatalf("%s: no table status line", st.Broker)
		}
		if tb.Entries == 0 || tb.States == 0 {
			t.Errorf("%s: empty matching table after subscription: %+v", st.Broker, tb)
		}
		if tb.Epoch == 0 || tb.Epoch > st.Epoch {
			t.Errorf("%s: table epoch %d, snapshot epoch %d", st.Broker, tb.Epoch, st.Epoch)
		}
	}

	// b1 and b2 forwarded over TCP, so their flush stage has observations.
	for _, r := range results[:2] {
		found := false
		for _, s := range r.Status.Stages {
			if s.Stage == "flush" && s.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: flush stage empty after forwarding", r.Status.Broker)
		}
	}

	// The human table renders too (second poll also exercises client-side
	// rate computation inside one run call is not possible with -once; the
	// table must at least carry every broker row and the stage columns).
	buf.Reset()
	if code := run([]string{"-brokers", strings.Join(c.targets, ","), "-once"}, &buf); code != 0 {
		t.Fatalf("xtop -once exit %d:\n%s", code, buf.String())
	}
	table := buf.String()
	for _, want := range []string{"BROKER", "LINKS", "NFA", "b1", "b2", "b3", "match", "flush", "@"} {
		if !strings.Contains(table, want) {
			t.Errorf("xtop table missing %q:\n%s", want, table)
		}
	}
}

func TestXtopNoBrokers(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-once"}, &buf); code != 2 {
		t.Errorf("run with no brokers = %d, want 2", code)
	}
}

func TestXtopUnreachable(t *testing.T) {
	var buf bytes.Buffer
	code := run([]string{"-brokers", "127.0.0.1:1", "-once", "-json", "-timeout", "200ms"}, &buf)
	if code != 1 {
		t.Errorf("run against dead target = %d, want 1:\n%s", code, buf.String())
	}
	var results []result
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil || len(results) != 1 || results[0].Error == "" {
		t.Errorf("dead-target JSON should carry the error: %v\n%s", err, buf.String())
	}
}

func TestComputeRates(t *testing.T) {
	prev := &status{Counters: map[string]float64{"a": 10, "b": 5}}
	cur := &status{Counters: map[string]float64{"a": 30, "b": 3}}
	computeRates(cur, prev, 2*time.Second)
	if got := cur.RatesPerSec["a"]; got != 10 {
		t.Errorf("rate a = %v, want 10", got)
	}
	// b went backwards: counter reset, rate from the post-reset value.
	if got := cur.RatesPerSec["b"]; got != 1.5 {
		t.Errorf("rate b after reset = %v, want 1.5", got)
	}
	// No baseline: leave the server-side rates untouched.
	solo := &status{Counters: map[string]float64{"a": 1}, RatesPerSec: map[string]float64{"a": 42}}
	computeRates(solo, nil, time.Second)
	if solo.RatesPerSec["a"] != 42 {
		t.Errorf("rates overwritten without baseline")
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
