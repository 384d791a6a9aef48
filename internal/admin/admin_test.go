package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("up_total", "").Inc()
	ring := trace.NewRing(8)
	ring.Record(trace.Event{TraceID: "t1", Broker: "b1"})
	ring.Record(trace.Event{TraceID: "t2", Broker: "b1"})
	routes := func() any { return map[string]string{"broker": "b1"} }
	srv := httptest.NewServer(Handler(reg, ring, routes))
	defer srv.Close()

	body, ctype := get(t, srv.URL+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	if !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics body:\n%s", body)
	}

	body, ctype = get(t, srv.URL+"/debug/traces")
	if ctype != "application/json" {
		t.Errorf("/debug/traces content type = %q", ctype)
	}
	var evs []trace.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil || len(evs) != 2 {
		t.Errorf("/debug/traces: %d events, err %v:\n%s", len(evs), err, body)
	}

	body, _ = get(t, srv.URL+"/debug/traces?id=t2")
	if err := json.Unmarshal([]byte(body), &evs); err != nil || len(evs) != 1 || evs[0].TraceID != "t2" {
		t.Errorf("/debug/traces?id=t2:\n%s", body)
	}

	body, _ = get(t, srv.URL+"/debug/routes")
	if !strings.Contains(body, `"broker": "b1"`) {
		t.Errorf("/debug/routes:\n%s", body)
	}

	if resp, err := http.Get(srv.URL + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

func TestHandlerNilComponents(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/traces", "/debug/routes"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with nil component: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServe(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Gauge("g", "").Set(1)
	addr, stop, err := Serve("127.0.0.1:0", Handler(reg, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	body, _ := get(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "g 1") {
		t.Errorf("served /metrics:\n%s", body)
	}
}

// TestThreeBrokerChainObservability is the acceptance test for the
// observability layer: a 3-broker TCP chain, a traced publication crossing
// all of it, verified through the admin endpoints — /metrics shows the
// match-latency histogram, routing-table gauges, and per-peer queue
// depths; /debug/traces shows the full hop list; and the subscriber's
// delivered frame carries the complete path.
func TestThreeBrokerChainObservability(t *testing.T) {
	const n = 3
	regs := make([]*metrics.Registry, n)
	rings := make([]*trace.Ring, n)
	servers := make([]*transport.Server, n)
	admins := make([]*httptest.Server, n)
	addrs := make([]string, n)
	neighbors := make([]map[string]string, n)
	for i := range servers {
		neighbors[i] = make(map[string]string)
	}
	for i := range servers {
		regs[i] = metrics.NewRegistry()
		rings[i] = trace.NewRing(64)
		cfg := broker.Config{
			ID:                fmt.Sprintf("b%d", i+1),
			UseAdvertisements: true,
			UseCovering:       true,
			Metrics:           regs[i],
			TraceSink:         rings[i],
		}
		servers[i] = transport.NewServer(cfg, neighbors[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		t.Cleanup(servers[i].Close)
		srv := servers[i]
		admins[i] = httptest.NewServer(Handler(regs[i], rings[i], func() any { return srv.Broker().Routes() }))
		t.Cleanup(admins[i].Close)
	}
	for i := range servers {
		if i > 0 {
			neighbors[i][fmt.Sprintf("b%d", i)] = addrs[i-1]
			servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i))
		}
		if i < n-1 {
			neighbors[i][fmt.Sprintf("b%d", i+2)] = addrs[i+1]
			servers[i].Broker().AddNeighbor(fmt.Sprintf("b%d", i+2))
		}
	}

	pub, err := transport.Dial(addrs[0], "pub")
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub, err := transport.Dial(addrs[2], "sub")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if err := pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: "a1", Adv: advert.MustParse("/stock/quote/price")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "advertisement flood", func() bool { return servers[2].SRTSize() == 1 })
	if err := sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: xpath.MustParse("/stock")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription propagation", func() bool { return servers[0].PRTSize() == 1 })

	traceID := trace.NewID()
	if err := pub.Send(&broker.Message{
		Type:    broker.MsgPublish,
		Pub:     xmldoc.Publication{DocID: 1, Path: []string{"stock", "quote", "price"}},
		TraceID: traceID,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := sub.WaitDelivery(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// The delivered frame carries the full hop list.
	if len(got.Hops) != 3 {
		t.Fatalf("delivered hop list = %v, want 3 hops", got.Hops)
	}
	for i, want := range []string{"b1", "b2", "b3"} {
		if got.Hops[i].Broker != want {
			t.Errorf("hop[%d] = %s, want %s", i, got.Hops[i].Broker, want)
		}
	}

	// Brokers record the trace event just after forwarding, so the
	// delivery can arrive before the last ring write; wait for the rings.
	waitFor(t, "trace rings", func() bool {
		for _, r := range rings {
			if len(r.ByID(traceID)) == 0 {
				return false
			}
		}
		return true
	})

	// Every broker's /debug/traces knows the trace; the last broker's
	// event shows the full upstream path and the client delivery.
	for i := range admins {
		body, _ := get(t, admins[i].URL+"/debug/traces?id="+traceID)
		var evs []trace.Event
		if err := json.Unmarshal([]byte(body), &evs); err != nil || len(evs) != 1 {
			t.Fatalf("broker %d /debug/traces: err %v, body:\n%s", i+1, err, body)
		}
		if len(evs[0].Hops) != i+1 {
			t.Errorf("broker %d recorded %d hops, want %d", i+1, len(evs[0].Hops), i+1)
		}
	}
	body, _ := get(t, admins[2].URL+"/debug/traces?id="+traceID)
	var evs []trace.Event
	json.Unmarshal([]byte(body), &evs)
	if len(evs) == 1 {
		if want := []string{"b1", "b2", "b3"}; len(evs[0].Hops) == 3 {
			for i := range want {
				if evs[0].Hops[i].Broker != want[i] {
					t.Errorf("edge trace hop[%d] = %s, want %s", i, evs[0].Hops[i].Broker, want[i])
				}
			}
		}
		if len(evs[0].DeliveredTo) != 1 || evs[0].DeliveredTo[0] != "sub" {
			t.Errorf("edge trace DeliveredTo = %v, want [sub]", evs[0].DeliveredTo)
		}
	}

	// /metrics on the middle broker: histogram, table gauges, queue depths.
	metricsBody, _ := get(t, admins[1].URL+"/metrics")
	for _, want := range []string{
		`xbroker_stage_seconds_count{stage="match"} 1`,
		`xbroker_prt_subscriptions 1`,
		`xbroker_srt_advertisements 1`,
		`xbroker_send_queue_depth{peer="b1"}`,
		`xbroker_send_queue_depth{peer="b3"}`,
		`xbroker_pool_workers`,
		`xbroker_msgs_in_total{type="publish"} 1`,
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("middle broker /metrics missing %q:\n%s", want, metricsBody)
		}
	}
	// The edge broker delivered to its client.
	edgeBody, _ := get(t, admins[2].URL+"/metrics")
	if !strings.Contains(edgeBody, "xbroker_deliveries_total 1") {
		t.Errorf("edge broker /metrics missing delivery count:\n%s", edgeBody)
	}

	// /debug/routes on the first broker shows the subscription learned
	// from the chain.
	routesBody, _ := get(t, admins[0].URL+"/debug/routes")
	var rt broker.RouteTables
	if err := json.Unmarshal([]byte(routesBody), &rt); err != nil {
		t.Fatalf("/debug/routes: %v:\n%s", err, routesBody)
	}
	if rt.Broker != "b1" || len(rt.Subscriptions) != 1 || rt.Subscriptions[0].XPE != "/stock" {
		t.Errorf("b1 routes = %+v", rt)
	}
}

func get(t *testing.T, url string) (body, contentType string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), resp.Header.Get("Content-Type")
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
