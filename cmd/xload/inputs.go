package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/subtree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// workload is one traffic mix. README.md gives the reason for each.
type workload struct {
	subs     int     // subscriptions the subscriber registers at b3
	covered  float64 // covering rate of that set (experiment.BuildCoveringSet)
	raw      bool    // publish whole documents as Message.Raw instead of paths
	paths    int     // path workloads: pool size, drawn from the paths of `docs` documents
	docs     int     // documents generated (raw workloads: the pool itself)
	docBytes int     // raw workloads: serialised size of each document
	rate     int     // open-loop publications per second (a multiple of 1000: one batch per 1 ms tick)
	window   int     // closed loop: bound on outstanding expected deliveries
	warmup   int     // publications sent before anything is measured
	churn    bool    // subscribe/unsubscribe pairs on the subscriber connection during both load phases
}

var workloads = map[string]workload{
	"path-setA":  {subs: 1000, covered: 0.9, paths: 20000, docs: 1000, rate: 10000, window: 16, warmup: 2000},
	"path-setB":  {subs: 2000, covered: 0.5, paths: 20000, docs: 1000, rate: 10000, window: 16, warmup: 2000},
	"doc-raw":    {subs: 1000, covered: 0.9, raw: true, docs: 200, docBytes: 8 << 10, rate: 1000, window: 4, warmup: 200},
	"churn-setA": {subs: 1000, covered: 0.9, paths: 20000, docs: 1000, rate: 10000, window: 16, warmup: 2000, churn: true},
}

// tableSeed fixes the subscription sets: Set A (1,000 at 90% covering) and
// Set B (2,000 at 50%) are part of a workload's definition, like the paper's
// Sets A and B. Across set seeds the share of publications the set selects
// ranges from 53% to 100%, which would move every per-publication metric by
// more than any bound worth having; the run seed draws the traffic.
const tableSeed = 1

// churnSeed fixes the held-out churn expressions for the same reason: the
// control traffic is part of a workload's definition. Drawn from the run
// seed, their differing rebuild costs moved churn-setA's allocs_per_pub by
// 3.7% (IQR over median) between seeds. An expression is skipped when the
// seed's traffic breaks one of its conditions (see inputs.churn).
const churnSeed = 2

// churnPool is how many held-out expressions are generated for churn and
// for the control-plane probes; they are reused cyclically.
const churnPool = 32

// inputs is everything a run sends, generated from the seed before any
// broker starts, together with what the oracle expects back.
type inputs struct {
	w    workload
	advs []*advert.Advertisement
	// srt is the SRT size every broker converges to: advertisement covering
	// drops advertisements covered by an earlier one from the same hop.
	srt  int
	subs []*xpath.XPE
	// upstream is the PRT size b1 and b2 converge to: with covering on, only
	// the set's uncovered members travel past the edge broker.
	upstream int

	// docs are source documents: the raw pool, or (path workloads) the
	// first documents the paths were drawn from, kept for the scanner replay.
	docs []*xmldoc.Document
	// Path workloads: the pool. Each publication keeps its document's DocID
	// and PathID; poolOf[pathStart[DocID]+PathID] is its pool index (-1 for
	// paths not drawn).
	pubs      []xmldoc.Publication
	bankDocs  int
	pathStart []int
	poolOf    []int32
	// Raw workloads: each document serialised.
	raws [][]byte

	// expect is the oracle's verdict per pool item: does any subscription
	// select it (a raw document: any of its paths)?
	expect []bool
	// keys is the number of distinct (path, attributes) keys the oracle
	// evaluated.
	keys int
	// churn holds held-out expressions that are neither covered by nor
	// covering any subscription, overlap an advertisement, and select no
	// pool item the set does not already select: each subscribe reaches b1
	// and grows its PRT by exactly one entry, and the delivery set the
	// oracle predicts never changes.
	churn []*xpath.XPE
}

func (in *inputs) poolLen() int {
	if in.w.raw {
		return len(in.raws)
	}
	return len(in.pubs)
}

// replayDocs bounds the documents a path workload keeps for the scanner
// replay of a traced run.
const replayDocs = 200

// genInputs builds a run's inputs. The documents and the path draw come
// from the seed, through distinct derived seeds.
func genInputs(w workload, seed int64) (*inputs, error) {
	nitf := dtddata.NITF()
	in := &inputs{w: w, advs: experiment.GenerateAdvertisements(nitf)}
	set, err := experiment.BuildCoveringSet(nitf, w.subs, w.covered, tableSeed)
	if err != nil {
		return nil, err
	}
	in.subs = set.XPEs
	in.upstream = len(experiment.Uncovered(in.subs))
	stored := storedAdverts(in.advs)
	in.srt = len(stored)

	dg := gen.NewDocGenerator(nitf, seed*7919+2)
	dg.AvgRepeat = 1.5
	verdicts := newOracle(in.subs)
	if w.raw {
		for i := 0; i < w.docs; i++ {
			doc, err := dg.GenerateSized(w.docBytes)
			if err != nil {
				return nil, err
			}
			in.docs = append(in.docs, doc)
			in.raws = append(in.raws, doc.Marshal())
			selected := false
			paths, attrs := doc.AnnotatedPaths()
			for j, p := range paths {
				// Every path goes through the oracle, so the churn pool is
				// checked against all of them.
				selected = verdicts.selects(p, attrs[j]) || selected
			}
			in.expect = append(in.expect, selected)
		}
	} else {
		// Paths drawn one by one from many documents vary far less between
		// seeds in length and selection than the paths of a few whole
		// documents, which is what per-publication metrics follow.
		var bank []xmldoc.Publication
		for i := 0; i < w.docs; i++ {
			doc := dg.Generate()
			if i < replayDocs {
				in.docs = append(in.docs, doc)
			}
			in.pathStart = append(in.pathStart, len(bank))
			bank = append(bank, xmldoc.Extract(doc, uint64(i))...)
		}
		in.bankDocs = w.docs
		in.pathStart = append(in.pathStart, len(bank))
		draw := rand.New(rand.NewSource(seed*7919 + 4)).Perm(len(bank))
		if len(draw) > w.paths {
			draw = draw[:w.paths]
		}
		in.poolOf = make([]int32, len(bank))
		for i := range in.poolOf {
			in.poolOf[i] = -1
		}
		for idx, b := range draw {
			p := bank[b]
			in.poolOf[b] = int32(idx)
			in.pubs = append(in.pubs, p)
			in.expect = append(in.expect, verdicts.selects(p.Path, p.Attrs))
		}
	}
	in.keys = len(verdicts.memo)
	in.churn, err = heldOut(in.subs, stored, verdicts, churnSeed)
	if err != nil {
		return nil, err
	}
	return in, nil
}

// storedAdverts replays the advertisement flood into a standalone broker
// configured like the chain's and returns the advertisements it kept: the
// SRT every broker of the chain converges to.
func storedAdverts(advs []*advert.Advertisement) []*advert.Advertisement {
	b := broker.New(broker.Config{ID: "predict", UseAdvertisements: true, UseCovering: true},
		func(string, *broker.Message) {})
	for i, a := range advs {
		b.HandleMessage(advertMsg(i, a), "pub")
	}
	byID := make(map[string]*advert.Advertisement, len(advs))
	for i, a := range advs {
		byID[advID(i)] = a
	}
	var out []*advert.Advertisement
	for _, r := range b.Routes().Advertisements {
		out = append(out, byID[r.ID])
	}
	return out
}

func advID(i int) string { return fmt.Sprintf("a%d", i) }

func advertMsg(i int, a *advert.Advertisement) *broker.Message {
	return &broker.Message{Type: broker.MsgAdvertise, AdvID: advID(i), Adv: a}
}

// oracle is the per-expression delivery oracle: a publication path is
// delivered iff some live subscription's XPE.MatchesPathAttrs selects it.
// Verdicts are memoised per distinct (path, attributes) key.
type oracle struct {
	subs []*xpath.XPE
	memo map[string]bool
	// unselected lists one representative of every key no subscription
	// selects.
	unselected []annotatedPath
}

type annotatedPath struct {
	path  []string
	attrs []map[string]string
}

func newOracle(subs []*xpath.XPE) *oracle {
	return &oracle{subs: subs, memo: make(map[string]bool)}
}

func (o *oracle) selects(path []string, attrs []map[string]string) bool {
	key := pathKey(path, attrs)
	if v, ok := o.memo[key]; ok {
		return v
	}
	v := false
	for _, x := range o.subs {
		if x.MatchesPathAttrs(path, attrs) {
			v = true
			break
		}
	}
	o.memo[key] = v
	if !v {
		o.unselected = append(o.unselected, annotatedPath{path, attrs})
	}
	return v
}

// pathKey renders a path with its attributes canonically (attribute names
// sorted per element).
func pathKey(path []string, attrs []map[string]string) string {
	var b strings.Builder
	for i, el := range path {
		b.WriteByte('/')
		b.WriteString(el)
		if i >= len(attrs) || len(attrs[i]) == 0 {
			continue
		}
		names := make([]string, 0, len(attrs[i]))
		for k := range attrs[i] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "[@%s=%q]", k, attrs[i][k])
		}
	}
	return b.String()
}

// heldOut draws the churn pool with the subscription generator's settings
// from the given seed; see inputs.churn for the conditions each member meets.
// The selection check runs over every distinct path the oracle found
// unselected, so it is exact for the whole pool.
func heldOut(subs []*xpath.XPE, stored []*advert.Advertisement, o *oracle, seed int64) ([]*xpath.XPE, error) {
	tree := subtree.New()
	seen := make(map[string]bool, len(subs))
	for _, x := range subs {
		tree.Insert(x)
		seen[x.Key()] = true
	}
	g := &gen.XPathGenerator{
		DTD:        dtddata.NITF(),
		Wildcard:   0.2,
		Descendant: 0.1,
		MaxLen:     10,
		MinLen:     3,
		Relative:   0.1,
		Rand:       rand.New(rand.NewSource(seed)),
	}
	var out []*xpath.XPE
	for attempt := 0; len(out) < churnPool; attempt++ {
		if attempt > 200000 {
			return nil, fmt.Errorf("held-out pool: found %d of %d expressions", len(out), churnPool)
		}
		x := g.Generate()
		if seen[x.Key()] || tree.IsCovered(x) || len(tree.CoveredBy(x)) > 0 {
			continue
		}
		if !overlapsAny(stored, x) || selectsAny(x, o.unselected) {
			continue
		}
		seen[x.Key()] = true
		out = append(out, x)
	}
	return out, nil
}

func overlapsAny(advs []*advert.Advertisement, x *xpath.XPE) bool {
	for _, a := range advs {
		if a.Overlaps(x) {
			return true
		}
	}
	return false
}

func selectsAny(x *xpath.XPE, paths []annotatedPath) bool {
	for _, p := range paths {
		if x.MatchesPathAttrs(p.path, p.attrs) {
			return true
		}
	}
	return false
}
