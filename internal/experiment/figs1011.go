package experiment

import (
	"fmt"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtd"
	"repro/internal/dtddata"
	"repro/internal/gen"
	"repro/internal/merge"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xmldoc"
)

// DelayOptions sizes the notification-delay experiments of Figures 10
// (PSD) and 11 (NITF): a broker chain with subscribers at increasing hop
// distances, whole documents of several sizes published from one end, link
// latencies drawn from the PlanetLab-like model.
type DelayOptions struct {
	// DocBytes are the document sizes to sweep (Fig 10: 2K/10K/20K;
	// Fig 11: 2K/20K/40K).
	DocBytes []int
	// Hops are the broker-hop counts measured (paper: 2..6).
	Hops []int
	// DocsPerSize is the number of published documents per size (default 8).
	DocsPerSize int
	// SubsPerSubscriber is each subscriber's number of XPEs (default 500).
	SubsPerSubscriber int
	Seed              int64
}

func (o *DelayOptions) defaults() {
	if len(o.Hops) == 0 {
		o.Hops = []int{2, 3, 4, 5, 6}
	}
	if o.DocsPerSize <= 0 {
		o.DocsPerSize = 8
	}
	if o.SubsPerSubscriber <= 0 {
		o.SubsPerSubscriber = 500
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
}

// DelaySeries is the measured mean delay per hop count for one document
// size and covering setting.
type DelaySeries struct {
	DocBytes int
	Covering bool
	DelayMs  []float64 // indexed like Options.Hops
}

// DelayResult holds one figure's series.
type DelayResult struct {
	DTDName string
	Hops    []int
	Series  []DelaySeries
}

// RunFig10 reproduces Figure 10 (PSD documents of 2K/10K/20K).
func RunFig10(opts DelayOptions) (*DelayResult, error) {
	if len(opts.DocBytes) == 0 {
		opts.DocBytes = []int{2 << 10, 10 << 10, 20 << 10}
	}
	return runDelay(dtddata.PSD(), "PSD", opts)
}

// RunFig11 reproduces Figure 11 (NITF documents of 2K/20K/40K).
func RunFig11(opts DelayOptions) (*DelayResult, error) {
	if len(opts.DocBytes) == 0 {
		opts.DocBytes = []int{2 << 10, 20 << 10, 40 << 10}
	}
	return runDelay(dtddata.NITF(), "NITF", opts)
}

func runDelay(d *dtd.DTD, name string, opts DelayOptions) (*DelayResult, error) {
	opts.defaults()
	res := &DelayResult{DTDName: name, Hops: opts.Hops}

	// Pre-generate the documents once per size.
	docGen := gen.NewDocGenerator(d, opts.Seed)
	docsBySize := make(map[int][]*xmldoc.Document)
	for _, size := range opts.DocBytes {
		for i := 0; i < opts.DocsPerSize; i++ {
			doc, err := docGen.GenerateSized(size)
			if err != nil {
				return nil, fmt.Errorf("experiment: sizing %s doc to %d: %w", name, size, err)
			}
			docsBySize[size] = append(docsBySize[size], doc)
		}
	}
	// Subscriber workloads, one per hop position, shared across runs.
	maxHops := 0
	for _, h := range opts.Hops {
		if h > maxHops {
			maxHops = h
		}
	}
	sets := make([]*CoveringSet, maxHops)
	for i := range sets {
		set, err := buildWorkloadSet(d, opts.SubsPerSubscriber, 0.9, opts.Seed+int64(20+i))
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	advs := GenerateAdvertisements(d)
	est := merge.NewDegreeEstimator(advs, 10, 4000)

	for _, size := range opts.DocBytes {
		for _, covering := range []bool{true, false} {
			series := DelaySeries{DocBytes: size, Covering: covering}
			delays, err := delayByHops(opts, covering, sets, docsBySize[size], advs, est, maxHops)
			if err != nil {
				return nil, err
			}
			series.DelayMs = delays
			res.Series = append(res.Series, series)
		}
	}
	return res, nil
}

// buildWorkloadSet prefers a rate-controlled set and falls back to a plain
// draw when the DTD's query space is too small for the antichain core.
func buildWorkloadSet(d *dtd.DTD, n int, rate float64, seed int64) (*CoveringSet, error) {
	set, err := BuildCoveringSet(d, n, rate, seed)
	if err == nil {
		return set, nil
	}
	return buildPlainSet(d, n, seed)
}

// delayByHops builds one broker chain with a subscriber at every hop
// distance, publishes the documents end to end, and returns the mean delay
// observed at each requested hop count. Documents travel as their bytes, so
// per-hop delay combines the PlanetLab-like link latency, the serialisation
// time of those bytes, and the broker's measured routing time — one
// streaming scan that matches as it goes, which covering reduces.
func delayByHops(opts DelayOptions, covering bool, sets []*CoveringSet, docs []*xmldoc.Document, advs []*advert.Advertisement, est *merge.DegreeEstimator, maxHops int) ([]float64, error) {
	net := sim.NewNetwork(opts.Seed)
	net.MeasureCompute = true
	net.Latency = sim.PlanetLabLatency{Median: 800 * time.Microsecond, Sigma: 0.15}
	net.Bandwidth = 12.5e6 // 100 Mbit/s links

	cfg := broker.Config{
		UseAdvertisements: true,
		UseCovering:       covering,
		Estimator:         est,
	}
	ids := sim.BuildChain(net, maxHops, sim.ConfigTemplate(cfg))
	pub := net.AddClient("pub", ids[0])
	for i, a := range advs {
		pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a})
	}
	net.Run()

	// One subscriber per broker hop distance h (its edge broker is the
	// h-th broker of the chain).
	subsByHop := make(map[int]*sim.Client, maxHops)
	for h := 2; h <= maxHops; h++ {
		c := net.AddClient(fmt.Sprintf("sub%d", h), ids[h-1])
		subsByHop[h] = c
		for _, x := range sets[h-1].XPEs {
			c.Send(&broker.Message{Type: broker.MsgSubscribe, XPE: x})
		}
	}
	net.Run()

	for _, doc := range docs {
		pub.Send(&broker.Message{Type: broker.MsgPublish, Raw: doc.Marshal()})
		net.Run() // complete each document before publishing the next
	}

	out := make([]float64, len(opts.Hops))
	for i, h := range opts.Hops {
		c := subsByHop[h]
		if c == nil {
			return nil, fmt.Errorf("experiment: hop count %d beyond the chain", h)
		}
		var s metrics.Summary
		for _, dl := range c.Deliveries {
			s.ObserveDuration(dl.Delay)
		}
		out[i] = s.Mean()
	}
	return out, nil
}

// Table renders one figure's series in the paper's layout.
func (r *DelayResult) Table() *Table {
	t := &Table{
		Caption: fmt.Sprintf("Figures 10/11 — %s notification delay vs. hops (ms)", r.DTDName),
		Columns: append([]string{"Series"}, hopHeaders(r.Hops)...),
	}
	for _, s := range r.Series {
		label := fmt.Sprintf("%s %dK", r.DTDName, s.DocBytes>>10)
		if s.Covering {
			label += " with covering"
		} else {
			label += " without covering"
		}
		cells := []string{label}
		for _, d := range s.DelayMs {
			cells = append(cells, fms(d))
		}
		t.AddRow(cells...)
	}
	return t
}

func hopHeaders(hops []int) []string {
	out := make([]string, len(hops))
	for i, h := range hops {
		out[i] = fmt.Sprintf("%d hops", h)
	}
	return out
}
