package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/slowlog"
	"repro/internal/trace"
	"repro/internal/transport"
)

// chain is the system under test: brokers b1–b2–b3 over loopback TCP, the
// publisher connected to b1 and the subscriber to b3.
type chain struct {
	srv [3]*transport.Server
	reg [3]*metrics.Registry
	pub *transport.Client
	sub *transport.Client
}

func brokerID(i int) string { return fmt.Sprintf("b%d", i+1) }

// brokerConfig is the broker configuration cmd/xbroker runs by default:
// advertisements and covering on, no merging, metrics registry, trace ring,
// slow-publication log.
func brokerConfig(id string, reg *metrics.Registry) broker.Config {
	slow := slowlog.New(50*time.Millisecond, 256)
	slow.Logger = func(e slowlog.Entry) { log.Printf("slow publication %s", e) }
	return broker.Config{
		ID:                id,
		UseAdvertisements: true,
		UseCovering:       true,
		ImperfectDegree:   0.1,
		Metrics:           reg,
		TraceSink:         trace.NewRing(1024),
		SlowLog:           slow,
	}
}

// startChain boots the three servers configured as cmd/xbroker is by
// default (brokerConfig; binary wire with default batching, 5 s heartbeats;
// no admin listener) and dials both clients.
func startChain() (*chain, error) {
	c := &chain{}
	var neighbors [3]map[string]string
	var addrs [3]string
	for i := range c.srv {
		neighbors[i] = make(map[string]string)
		c.reg[i] = metrics.NewRegistry()
		cfg := brokerConfig(brokerID(i), c.reg[i])
		c.srv[i] = transport.NewServerOptions(cfg, neighbors[i], transport.Options{
			Heartbeat: 5 * time.Second,
			Wire:      transport.WireBinary,
		})
		addr, err := c.srv[i].Listen("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		addrs[i] = addr
	}
	// Listen picks the ports, so the neighbour maps are filled in after it;
	// links are dialled lazily, on the first message, which comes later.
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		neighbors[e[0]][brokerID(e[1])] = addrs[e[1]]
		c.srv[e[0]].Broker().AddNeighbor(brokerID(e[1]))
	}
	var err error
	if c.pub, err = transport.Dial(addrs[0], "pub"); err != nil {
		c.close()
		return nil, err
	}
	if c.sub, err = transport.Dial(addrs[2], "sub"); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *chain) close() {
	for _, cl := range []*transport.Client{c.pub, c.sub} {
		if cl != nil {
			cl.Close()
		}
	}
	for _, s := range c.srv {
		if s != nil {
			s.Close()
		}
	}
}

// linkTxBytes sums the bytes written on every broker-broker link.
func (c *chain) linkTxBytes() int64 {
	var n int64
	for _, s := range c.srv {
		for _, l := range s.Links() {
			n += l.TxBytes
		}
	}
	return n
}

// pollEvery is how often convergence and churn application are polled;
// PRTSize and SRTSize read the routing snapshot without taking a lock.
const pollEvery = 200 * time.Microsecond

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}

// setupTimeout bounds each wait of a setup; a chain that has not converged
// by then ends the run with an error.
const setupTimeout = 60 * time.Second

type setupResult struct {
	seconds float64 // boot to converged tables
	heapMB  float64 // live heap the chain added
}

// setup boots a chain and loads its tables: one advertisement first, so
// the lazily dialled links come up before the flood (sent all at once, the
// advertisements overflow the 1,024-entry retry buffer of the still-down
// links), then the rest, then every subscription. It ends when every table
// holds the size the inputs predict and every subscription message sent
// along the chain has been received.
func setup(in *inputs) (*chain, setupResult, error) {
	before := liveHeap()
	start := time.Now()
	c, err := startChain()
	if err != nil {
		return nil, setupResult{}, err
	}
	fail := func(format string, args ...any) (*chain, setupResult, error) {
		c.close()
		return nil, setupResult{}, fmt.Errorf(format, args...)
	}
	if err := c.pub.Send(advertMsg(0, in.advs[0])); err != nil {
		return fail("advertise: %v", err)
	}
	if !waitFor(setupTimeout, func() bool { return c.srv[2].SRTSize() == 1 }) {
		return fail("setup: links did not come up within %v", setupTimeout)
	}
	for i := 1; i < len(in.advs); i++ {
		if err := c.pub.Send(advertMsg(i, in.advs[i])); err != nil {
			return fail("advertise: %v", err)
		}
	}
	if !waitFor(setupTimeout, func() bool {
		return c.srv[0].SRTSize() == in.srt && c.srv[1].SRTSize() == in.srt && c.srv[2].SRTSize() == in.srt
	}) {
		return fail("setup: SRT sizes %d/%d/%d, want %d", c.srv[0].SRTSize(), c.srv[1].SRTSize(), c.srv[2].SRTSize(), in.srt)
	}
	for _, x := range in.subs {
		if err := c.sub.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: x}); err != nil {
			return fail("subscribe: %v", err)
		}
	}
	if !waitFor(setupTimeout, func() bool { return c.converged(in) }) {
		return fail("setup: PRT sizes %d/%d/%d, want %d/%d/%d", c.srv[0].PRTSize(), c.srv[1].PRTSize(), c.srv[2].PRTSize(),
			in.upstream, in.upstream, len(in.subs))
	}
	secs := time.Since(start).Seconds()
	return c, setupResult{seconds: secs, heapMB: float64(liveHeap()-before) / (1 << 20)}, nil
}

// converged reports whether the subscription tables have settled. Sizes
// alone can pass through the final value while covered subscriptions are
// still being withdrawn upstream, so every subscribe and unsubscribe a
// broker has sent must also have been received by its upstream neighbour.
// Each such message changes the receiver's PRT size by one, so a message
// still being handled leaves a size off its final value.
func (c *chain) converged(in *inputs) bool {
	if c.srv[2].PRTSize() != len(in.subs) || c.srv[1].PRTSize() != in.upstream || c.srv[0].PRTSize() != in.upstream {
		return false
	}
	var st [3]broker.Stats
	for i, s := range c.srv {
		st[i] = s.Stats()
	}
	if st[2].MsgsIn[broker.MsgSubscribe] != int64(len(in.subs)) {
		return false
	}
	for i := 0; i < 2; i++ {
		for _, t := range []broker.MsgType{broker.MsgSubscribe, broker.MsgUnsubscribe} {
			if st[i].MsgsIn[t] != st[i+1].MsgsOut[t] {
				return false
			}
		}
	}
	return true
}

// liveHeap returns the heap in use after two collections: objects pooled in
// a sync.Pool survive the first one.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
