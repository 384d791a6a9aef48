package experiment

import (
	"time"

	"repro/internal/advert"
	"repro/internal/dtd"
	"repro/internal/dtddata"
	"repro/internal/subtree"
	"repro/internal/xpath"
)

// Fig8Options sizes the XPE processing-time experiment (paper: 5000 XPEs,
// reported as the average per batch of 500, for NITF and PSD).
type Fig8Options struct {
	N         int     // total XPEs (default 5000)
	BatchSize int     // reporting granularity (default 500)
	Rate      float64 // covering rate of the workloads (paper reports ~0.9)
	Seed      int64
}

func (o *Fig8Options) defaults() {
	if o.N <= 0 {
		o.N = 5000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 500
	}
	if o.Rate == 0 {
		o.Rate = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 3
	}
}

// Fig8Result holds per-batch average XPE processing times in milliseconds,
// and how many XPEs each covering run found covered on arrival and so never
// matched against the advertisements: the work covering saves, as a count.
type Fig8Result struct {
	Batch        []int // x axis: number of XPEs processed so far
	NITFCov      []float64
	NITFNoCov    []float64
	PSDCov       []float64
	PSDNoCov     []float64
	NITFAdvs     int
	PSDAdvs      int
	MeasuredRate float64
	N            int // XPEs per run

	NITFSkipped, PSDSkipped int
}

// RunFig8 reproduces Figure 8. Processing an XPE without covering means
// matching it against every advertisement to compute its next hops.
// Covering-based processing first checks the subscription tree: a covered
// XPE is not forwarded, so advertisement matching is skipped entirely —
// which is where the savings come from, and why the much larger NITF
// advertisement set benefits more.
func RunFig8(opts Fig8Options) (*Fig8Result, error) {
	opts.defaults()
	res := &Fig8Result{N: opts.N}

	nitfSet, err := BuildCoveringSet(dtddata.NITF(), opts.N, opts.Rate, opts.Seed)
	if err != nil {
		return nil, err
	}
	psdSet, err := buildPSDSet(opts.N, opts.Rate, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	res.MeasuredRate = nitfSet.MeasuredRate

	nitfAdvs := GenerateAdvertisements(dtddata.NITF())
	psdAdvs := GenerateAdvertisements(dtddata.PSD())
	res.NITFAdvs = len(nitfAdvs)
	res.PSDAdvs = len(psdAdvs)

	res.NITFNoCov, _ = processingTimes(nitfSet.XPEs, nitfAdvs, false, opts.BatchSize)
	res.NITFCov, res.NITFSkipped = processingTimes(nitfSet.XPEs, nitfAdvs, true, opts.BatchSize)
	res.PSDNoCov, _ = processingTimes(psdSet.XPEs, psdAdvs, false, opts.BatchSize)
	res.PSDCov, res.PSDSkipped = processingTimes(psdSet.XPEs, psdAdvs, true, opts.BatchSize)
	for i := 1; i <= len(res.NITFNoCov); i++ {
		res.Batch = append(res.Batch, i*opts.BatchSize)
	}
	return res, nil
}

// buildPSDSet builds the PSD workload. The PSD query space is small, so
// high covered fractions may be unreachable at larger sizes; the builder
// cascades to lower rates and finally to a plain draw, reporting whatever
// rate it measured.
func buildPSDSet(n int, rate float64, seed int64) (*CoveringSet, error) {
	for r := rate; r >= 0.45; r -= 0.2 {
		if set, err := BuildCoveringSet(dtddata.PSD(), n, r, seed); err == nil {
			return set, nil
		}
	}
	return buildPlainSet(dtddata.PSD(), n, seed)
}

func buildPlainSet(d *dtd.DTD, n int, seed int64) (*CoveringSet, error) {
	g := newDefaultXPathGen(d, seed)
	xpes, err := g.GenerateDistinct(n)
	if err != nil {
		return nil, err
	}
	return &CoveringSet{XPEs: xpes, MeasuredRate: MeasureCoveringRate(xpes)}, nil
}

// processingTimes replays the XPE arrival sequence and reports the average
// per-XPE processing time of each batch, in milliseconds, and how many XPEs
// covering skipped (found covered, so not matched against advs).
func processingTimes(xpes []*xpath.XPE, advs []*advert.Advertisement, covering bool, batch int) (out []float64, skipped int) {
	tree := subtree.New()
	var batchTime time.Duration
	inBatch := 0
	for _, x := range xpes {
		start := time.Now()
		if covering {
			if tree.IsCovered(x) {
				skipped++
			} else {
				matchAllAdvs(advs, x)
				res := tree.Insert(x)
				for _, covered := range res.NewlyCovered {
					tree.Remove(covered)
				}
			}
		} else {
			matchAllAdvs(advs, x)
		}
		batchTime += time.Since(start)
		inBatch++
		if inBatch == batch {
			out = append(out, float64(batchTime)/float64(inBatch)/float64(time.Millisecond))
			batchTime, inBatch = 0, 0
		}
	}
	return out, skipped
}

// matchAllAdvs computes the advertisement matches of an XPE (the forwarding
// decision of an advertisement-based router); the count keeps the compiler
// from eliding the work.
func matchAllAdvs(advs []*advert.Advertisement, x *xpath.XPE) int {
	matches := 0
	for _, a := range advs {
		if a.Overlaps(x) {
			matches++
		}
	}
	return matches
}

// Table renders the result in the shape of Figure 8.
func (r *Fig8Result) Table() *Table {
	t := &Table{
		Caption: "Figure 8 — XPE processing time per batch (ms/XPE)",
		Columns: []string{"#XPEs", "NITF+cov", "NITF-cov", "PSD+cov", "PSD-cov"},
		Notes: []string{
			"advertisements: NITF " + fint(r.NITFAdvs) + ", PSD " + fint(r.PSDAdvs),
			"NITF workload covering rate: " + fpct(r.MeasuredRate),
			"overlap checks (+cov/-cov): NITF " + fint(r.NITFAdvs*(r.N-r.NITFSkipped)) + "/" + fint(r.NITFAdvs*r.N) +
				", PSD " + fint(r.PSDAdvs*(r.N-r.PSDSkipped)) + "/" + fint(r.PSDAdvs*r.N),
		},
	}
	for i := range r.Batch {
		t.AddRow(fint(r.Batch[i]), fms(r.NITFCov[i]), fms(r.NITFNoCov[i]), fms(r.PSDCov[i]), fms(r.PSDNoCov[i]))
	}
	return t
}
