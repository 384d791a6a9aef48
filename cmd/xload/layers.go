package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/broker"
	"repro/internal/metrics"
	"repro/internal/pmatch"
	"repro/internal/stream"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/wirefmt"
	"repro/internal/xmldoc"
)

// traceEvery is the share of publications the traced phase marks with a
// TraceID, and of replayed calls recorded as spans.
const traceEvery = 64

// probesPerSecond sizes the idle control-change probe of the workloads
// without churn: this many changes per measured second.
const probesPerSecond = 10

// traceRun is the traced run, three phases of third each: an untraced open
// loop and a closed loop, which give the end-to-end timings, and a traced
// open loop; then, without churn, a probe of control changes on the idle
// chain, and a replay of the same inputs through each layer's entry point.
// It writes every per-layer metric into out and the spans to spansPath
// (when set), and stops the churner if one runs.
func traceRun(r *runner, third time.Duration, spansPath string, out map[string]metric) (churnResult, error) {
	fail := func(err error) (churnResult, error) {
		if r.churn != nil {
			r.churn.stop()
		}
		return churnResult{}, err
	}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	runtime.GC()
	plain, err := r.openLoop(third, 0, nil)
	if err != nil {
		return fail(err)
	}
	runtime.GC()
	rates, err := r.closedLoop(third)
	if err != nil {
		return fail(err)
	}

	queueMax, ticks := 0, 0
	sampleQueues := func() {
		if ticks++; ticks%10 != 0 {
			return
		}
		for _, s := range r.c.srv {
			for _, d := range s.QueueDepths() {
				if d > queueMax {
					queueMax = d
				}
			}
		}
	}
	runtime.GC()
	stagesBefore, wireBefore, statsBefore := stageHistograms(r.c), wireTotals(r.c), chainStats(r.c)
	traced, err := r.openLoop(third, traceEvery, sampleQueues)
	if err != nil {
		return fail(err)
	}
	stages, wire, stats := stageHistograms(r.c), wireTotals(r.c).minus(wireBefore), chainStats(r.c).minus(statsBefore)
	var ctl churnResult
	if r.churn != nil {
		ctl = r.churn.stop()
	} else {
		runtime.GC()
		ctl = r.probe(2 * int(math.Ceil(3*third.Seconds()*probesPerSecond/2)))
	}
	if ctl.err != nil {
		return ctl, ctl.err
	}

	// The end-to-end timings, from the untraced phases. Their run-to-run
	// spread on a shared 2-vCPU host exceeds any bound the benchmark may set
	// (README.md, noise findings), so they are reported here, ungated.
	put("e2e.pubs_per_s", "1/s", median(rates))
	put("e2e.delay_p50_us", "us", median(plain.sliceQuantiles(0.5))/1e3)
	put("e2e.delay_p90_us", "us", median(plain.sliceQuantiles(0.9))/1e3)
	put("e2e.cpu_us_per_pub", "us", median(plain.sliceCPU))
	put("e2e.sub_apply_p50_ms", "ms", median(ctl.subscribed))
	for name, h := range stages {
		h.subtract(stagesBefore[name])
	}
	pubs := float64(traced.end - traced.first)
	p50us := func(stage string) float64 { return stages[stage].quantile(0.5) * 1e6 }

	put("transport.decode_p50_us", "us", p50us("decode"))
	put("transport.queue_p50_us", "us", p50us("queue"))
	put("transport.flush_p50_us", "us", p50us("flush"))
	put("transport.batch_frames_mean", "1", ratio(wire.frames, wire.batches))
	put("transport.frames_per_pub", "1", wire.frames/pubs)
	put("transport.send_queue_max", "count", float64(queueMax))
	var inFlight int64
	for _, s := range r.c.srv {
		if h := s.InFlight.High(); h > inFlight {
			inFlight = h
		}
	}
	put("transport.pool_in_flight_high", "count", float64(inFlight))
	put("broker.match_p50_us", "us", p50us("match"))
	put("broker.filter_p50_us", "us", p50us("filter"))
	put("broker.enqueue_p50_us", "us", p50us("enqueue"))
	put("broker.delivered_frac", "1", ratio(stats.delivered, stats.received))

	u := traced.use
	put("process.busy_share", "1", float64(u.cpu)/float64(u.wall)/float64(runtime.GOMAXPROCS(0)))
	put("runtime.gc_per_kpub", "1", float64(u.gcs)/(pubs/1000))
	put("runtime.alloc_kb_per_pub", "KiB", float64(u.alloc)/1024/pubs)
	put("runtime.gc_cpu_frac", "1", ratio(u.gcCPU, u.totalCPU))
	put("client.delay_p99_us", "us", quantile(traced.delays, 0.99)/1e3)
	put("client.delay_p999_us", "us", quantile(traced.delays, 0.999)/1e3)
	put("client.delay_samples", "count", float64(len(traced.delays)))
	put("gen.late_p50_us", "us", quantile(traced.lates, 0.5)/1e3)
	put("gen.late_p99_us", "us", quantile(traced.lates, 0.99)/1e3)
	cpuPlain := median(plain.sliceCPU)
	put("trace.overhead_pct", "%", 100*(median(traced.sliceCPU)-cpuPlain)/cpuPlain)

	var sp spanLog
	stageSum, unaccounted, share := sp.ledger(r, traced.traced)
	put("ledger.stage_sum_p50_us", "us", quantile(stageSum, 0.5)/1e3)
	put("ledger.unaccounted_p50_us", "us", quantile(unaccounted, 0.5)/1e3)
	put("ledger.unaccounted_share", "1", median(share))

	if err := replayLayers(r.in, &sp, put); err != nil {
		return ctl, err
	}
	if spansPath != "" {
		if err := sp.write(spansPath); err != nil {
			return ctl, err
		}
	}
	return ctl, nil
}

// histogram is a bucketed distribution in the metrics.Histogram layout.
type histogram struct {
	upper []float64
	cum   []int64
}

func (h *histogram) subtract(before *histogram) {
	if before == nil {
		return
	}
	for i := range h.cum {
		h.cum[i] -= before.cum[i]
	}
}

func (h *histogram) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return metrics.QuantileFromBuckets(h.upper, h.cum, q)
}

// stageHistograms merges the three brokers' publish-path stage histograms
// (xbroker_stage_seconds), keyed by stage.
func stageHistograms(c *chain) map[string]*histogram {
	out := make(map[string]*histogram)
	for _, reg := range c.reg {
		for _, p := range reg.Export() {
			if p.Name != "xbroker_stage_seconds" || p.Histogram == nil {
				continue
			}
			stage := p.Labels["stage"]
			h := out[stage]
			if h == nil {
				h = &histogram{upper: p.Histogram.Upper, cum: make([]int64, len(p.Histogram.Cumulative))}
				out[stage] = h
			}
			for i, v := range p.Histogram.Cumulative {
				h.cum[i] += v
			}
		}
	}
	return out
}

// wireCounts sums the brokers' binary-codec transmit counters.
type wireCounts struct{ frames, batches float64 }

func (w wireCounts) minus(v wireCounts) wireCounts {
	return wireCounts{w.frames - v.frames, w.batches - v.batches}
}

func wireTotals(c *chain) wireCounts {
	var w wireCounts
	for _, reg := range c.reg {
		for _, p := range reg.Export() {
			if p.Labels["codec"] != "binary" {
				continue
			}
			switch p.Name {
			case "xbroker_wire_tx_frames_total":
				w.frames += p.Value
			case "xbroker_wire_tx_batches_total":
				w.batches += p.Value
			}
		}
	}
	return w
}

// brokerCounts are the chain's own delivery counters: publications b1
// received and b3 handed to its client.
type brokerCounts struct{ received, delivered float64 }

func (b brokerCounts) minus(v brokerCounts) brokerCounts {
	return brokerCounts{b.received - v.received, b.delivered - v.delivered}
}

func chainStats(c *chain) brokerCounts {
	return brokerCounts{
		received:  float64(c.srv[0].Stats().MsgsIn[broker.MsgPublish]),
		delivered: float64(c.srv[2].Stats().Deliveries),
	}
}

// span is one interval of the traced run: a publication from due time to
// receipt with its per-hop stages as children, or a replayed call into a
// layer. Req ties a span to the publication (seq) or pool item it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // run clock
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct{ spans []span }

func (l *spanLog) add(name string, parent int, req, start, end int64) int {
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// selfTime is a span's duration minus the part of it its children cover.
func (l *spanLog) selfTime(id int, children []int) int64 {
	root := l.spans[id]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		s := l.spans[c]
		a, b := max(s.Start, root.Start), min(s.End, root.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = root.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		covered += v.b - v.a
		end = v.b
	}
	return root.End - root.Start - covered
}

// ledger turns each traced delivery into a publication span with one child
// per broker stage the hops carried (decode, queue, match, filter; each
// hop's wall stamp marks the end of its match stage), and returns per
// delivery the stage sum, the unaccounted remainder (the root's self time:
// client send and receive, enqueue, flush and the wire), and that
// remainder's share of the end-to-end delay.
func (l *spanLog) ledger(r *runner, ds []tracedDelivery) (stageSum, unaccounted []int64, share []float64) {
	for _, d := range ds {
		due := r.sentAt[d.seq].Load() - 1
		root := l.add("publication", -1, int64(d.seq), due, d.recv)
		var children []int
		var sum int64
		for _, h := range d.hops {
			matchEnd := h.UnixNano - r.wall
			at := matchEnd - h.StageNanos("match") - h.StageNanos("queue") - h.StageNanos("decode")
			for _, st := range []string{"decode", "queue", "match", "filter"} {
				n := h.StageNanos(st)
				children = append(children, l.add(h.Broker+"."+st, root, int64(d.seq), at, at+n))
				at += n
				sum += n
			}
		}
		self := l.selfTime(root, children)
		stageSum = append(stageSum, sum)
		unaccounted = append(unaccounted, self)
		if e2e := d.recv - due; e2e > 0 {
			share = append(share, float64(self)/float64(e2e))
		}
	}
	return stageSum, unaccounted, share
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replay times repeated calls of one layer entry point. Every traceEvery-th
// call is also recorded as a span under the replay's own span; the reported
// numbers come from the whole loop.
type replay struct {
	l       *spanLog
	id      int
	start   time.Time
	mallocs uint64
}

func (l *spanLog) replay(name string) *replay {
	runtime.GC()
	r := &replay{l: l, mallocs: mallocs()}
	r.start = time.Now()
	r.id = l.add("replay."+name, -1, -1, int64(time.Since(processStart)), 0)
	return r
}

// call runs f as the i-th call, as a span when it is sampled.
func (r *replay) call(i int, name string, f func()) {
	if i%traceEvery != 0 {
		f()
		return
	}
	start := int64(time.Since(processStart))
	f()
	r.l.add(name, r.id, int64(i), start, int64(time.Since(processStart)))
}

// done closes the replay span and returns ns and allocations per call.
func (r *replay) done(calls int) (nsPerCall, allocsPerCall float64) {
	elapsed := time.Since(r.start)
	allocs := mallocs() - r.mallocs
	r.l.spans[r.id].End = int64(time.Since(processStart))
	return float64(elapsed) / float64(calls), float64(allocs) / float64(calls)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replayLayers replays the run's inputs through each layer's public entry
// point in isolation, on this goroutine.
func replayLayers(in *inputs, l *spanLog, put func(name, unit string, v float64)) error {
	// The messages as the publisher sends them, and the paths they carry.
	var msgs []*broker.Message
	var paths [][]string
	var attrs [][]map[string]string
	if in.w.raw {
		for i, raw := range in.raws {
			msgs = append(msgs, &broker.Message{Type: broker.MsgPublish, Pub: xmldoc.Publication{DocID: uint64(i)}, Raw: raw})
			p, a := in.docs[i].AnnotatedPaths()
			paths, attrs = append(paths, p...), append(attrs, a...)
		}
	} else {
		for _, p := range in.pubs {
			p.SymPath = nil // the wire never carries it; brokers intern on arrival
			msgs = append(msgs, &broker.Message{Type: broker.MsgPublish, Pub: p})
			paths, attrs = append(paths, p.Path), append(attrs, p.Attrs)
		}
	}

	// wirefmt: the second pass over the messages runs on a warm dictionary,
	// as a long-lived link does.
	var stream1 bytes.Buffer
	enc := wirefmt.NewEncoder(&stream1, wirefmt.DefaultLimits)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("wirefmt replay: %w", err)
		}
	}
	warm := stream1.Len()
	rp := l.replay("wirefmt.encode")
	for i, m := range msgs {
		var err error
		rp.call(i, "wirefmt.encode", func() { err = enc.Encode(m) })
		if err != nil {
			return fmt.Errorf("wirefmt replay: %w", err)
		}
	}
	ns, _ := rp.done(len(msgs))
	put("wirefmt.encode_ns", "ns", ns)
	put("wirefmt.bytes_per_msg", "B", float64(stream1.Len()-warm)/float64(len(msgs)))

	dec := wirefmt.NewDecoder(bytes.NewReader(stream1.Bytes()), wirefmt.DefaultLimits)
	for range msgs {
		var m broker.Message
		if err := dec.Decode(&m); err != nil {
			return fmt.Errorf("wirefmt replay: %w", err)
		}
	}
	rp = l.replay("wirefmt.decode")
	for i := range msgs {
		var err error
		// A fresh message per frame, as the transport's read loop decodes.
		rp.call(i, "wirefmt.decode", func() { err = dec.Decode(new(broker.Message)) })
		if err != nil {
			return fmt.Errorf("wirefmt replay: %w", err)
		}
	}
	ns, allocs := rp.done(len(msgs))
	put("wirefmt.decode_ns", "ns", ns)
	put("wirefmt.decode_allocs", "1", allocs)

	rp = l.replay("symtab.intern")
	for i, p := range paths {
		rp.call(i, "symtab.intern", func() { symtab.InternPath(p) })
	}
	ns, _ = rp.done(len(paths))
	put("symtab.intern_ns_per_path", "ns", ns)

	// pmatch: the edge broker's automaton, one PRT entry and one client
	// filter entry per subscription.
	build := func() *pmatch.ShardedAutomaton {
		b := pmatch.NewShardedBuilder(runtime.GOMAXPROCS(0))
		for _, x := range in.subs {
			b.Add(x, "sub")
			b.Add(x, "client:sub")
		}
		return b.Build()
	}
	var builds []float64
	var auto *pmatch.ShardedAutomaton
	for i := 0; i < 3; i++ {
		start := time.Now()
		auto = build()
		builds = append(builds, float64(time.Since(start))/1e6)
	}
	put("pmatch.rebuild_ms", "ms", median(builds))
	put("pmatch.states", "count", float64(auto.Stats().States))
	syms := make([][]symtab.Sym, len(paths))
	for i, p := range paths {
		syms[i] = symtab.InternPath(p)
	}
	accepts := 0
	count := func(any) { accepts++ }
	rp = l.replay("pmatch.match")
	for i, p := range syms {
		rp.call(i, "pmatch.match", func() { auto.Match(p, attrs[i], count) })
	}
	ns, _ = rp.done(len(syms))
	put("pmatch.match_ns_per_path", "ns", ns)
	put("pmatch.accepts_per_path", "1", float64(accepts)/float64(len(syms)))

	docs := in.raws
	if !in.w.raw {
		docs = nil
		for _, d := range in.docs {
			docs = append(docs, d.Marshal())
		}
	}
	scanned := 0
	var scanErr error
	rp = l.replay("stream.match")
	for i, d := range docs {
		rp.call(i, "stream.match", func() {
			if err := stream.Match(d, auto, stream.WireLimits, count); err != nil {
				scanErr = err
			}
		})
		scanned += len(d)
	}
	ns, allocs = rp.done(len(docs))
	if scanErr != nil {
		return fmt.Errorf("stream replay: %w", scanErr)
	}
	put("stream.scan_mb_per_s", "MB/s", float64(scanned)/(ns*float64(len(docs)))*1e3)
	put("stream.allocs_per_doc", "1", allocs)

	rp = l.replay("subtree.insert")
	tree := subtree.New()
	for i, x := range in.subs {
		rp.call(i, "subtree.insert", func() { tree.Insert(x) })
	}
	ns, _ = rp.done(len(in.subs))
	put("subtree.insert_us", "us", ns/1e3)

	rp = l.replay("advert.overlap")
	for i, x := range in.churn {
		rp.call(i, "advert.overlap", func() {
			for _, a := range in.advs {
				a.Overlaps(x)
			}
		})
	}
	ns, _ = rp.done(len(in.churn))
	put("advert.overlap_ms_per_sub", "ms", ns/1e6)

	return replayBroker(in, msgs, l, put)
}

// replayBroker loads a standalone broker configured and filled like the
// chain's edge broker b3 (advertisements from b2, every subscription from
// its client) and replays the control plane and the publications through
// HandleMessage, with a send that only counts.
func replayBroker(in *inputs, msgs []*broker.Message, l *spanLog, put func(name, unit string, v float64)) error {
	sent := 0
	b := broker.New(brokerConfig("b3", metrics.NewRegistry()), func(string, *broker.Message) { sent++ })
	b.AddNeighbor("b2")
	b.AddClient("sub")
	rp := l.replay("broker.advertise")
	for i, a := range in.advs {
		m := advertMsg(i, a)
		rp.call(i, "broker.advertise", func() { b.HandleMessage(m, "b2") })
	}
	ns, _ := rp.done(len(in.advs))
	put("broker.advertise_us", "us", ns/1e3)
	for _, x := range in.subs {
		b.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "sub")
	}
	if b.PRTSize() != len(in.subs) {
		return fmt.Errorf("broker replay: PRT holds %d of %d subscriptions", b.PRTSize(), len(in.subs))
	}

	var subMs, unsubMs []float64
	for i, x := range in.churn {
		for _, t := range []broker.MsgType{broker.MsgSubscribe, broker.MsgUnsubscribe} {
			m := &broker.Message{Type: t, XPE: x}
			start := int64(time.Since(processStart))
			b.HandleMessage(m, "sub")
			end := int64(time.Since(processStart))
			l.add("broker."+t.String(), -1, int64(i), start, end)
			if t == broker.MsgSubscribe {
				subMs = append(subMs, float64(end-start)/1e6)
			} else {
				unsubMs = append(unsubMs, float64(end-start)/1e6)
			}
		}
	}
	put("broker.subscribe_ms", "ms", median(subMs))
	put("broker.unsubscribe_ms", "ms", median(unsubMs))

	sent = 0
	rp = l.replay("broker.publish")
	for i, m := range msgs {
		rp.call(i, "broker.publish", func() { b.HandleMessage(m, "b2") })
	}
	ns, allocs := rp.done(len(msgs))
	put("broker.publish_ns", "ns", ns)
	put("broker.publish_allocs", "1", allocs)
	if sent == 0 {
		return fmt.Errorf("broker replay: no publication delivered")
	}
	return nil
}
