package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dtddata"
)

func TestBuildCoveringSetRates(t *testing.T) {
	for _, rate := range []float64{0.5, 0.9} {
		set, err := BuildCoveringSet(dtddata.NITF(), 2000, rate, 11)
		if err != nil {
			t.Fatalf("rate %.1f: %v", rate, err)
		}
		if len(set.XPEs) != 2000 {
			t.Fatalf("rate %.1f: got %d XPEs", rate, len(set.XPEs))
		}
		if math.Abs(set.MeasuredRate-rate) > 0.08 {
			t.Errorf("rate %.1f: measured %.3f", rate, set.MeasuredRate)
		}
		// Distinctness.
		seen := make(map[string]bool)
		for _, x := range set.XPEs {
			if seen[x.Key()] {
				t.Fatalf("duplicate %s", x)
			}
			seen[x.Key()] = true
		}
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := RunFig6(Fig6Options{N: 2000, Checkpoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.N) - 1
	// Covering must compact the table, and the higher-overlap Set A must
	// compact more than Set B — the paper's headline Figure 6 shape.
	if res.CoveringA[last] >= res.NoCovering[last] {
		t.Errorf("Set A covering table %d not smaller than %d", res.CoveringA[last], res.NoCovering[last])
	}
	if res.CoveringB[last] >= res.NoCovering[last] {
		t.Errorf("Set B covering table %d not smaller than %d", res.CoveringB[last], res.NoCovering[last])
	}
	if res.CoveringA[last] >= res.CoveringB[last] {
		t.Errorf("Set A (%d) should compact below Set B (%d)", res.CoveringA[last], res.CoveringB[last])
	}
	// The paper reports up to ~90% reduction on the high-overlap set.
	reduction := 1 - float64(res.CoveringA[last])/float64(res.NoCovering[last])
	if reduction < 0.7 {
		t.Errorf("Set A reduction = %.2f, want > 0.7", reduction)
	}
	if !strings.Contains(res.Table().String(), "Figure 6") {
		t.Error("table caption missing")
	}
}

func TestFig7Shape(t *testing.T) {
	res, err := RunFig7(Fig7Options{N: 2000, Checkpoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	last := len(res.N) - 1
	// Merging compacts beyond covering; imperfect compacts beyond perfect.
	if res.PerfectMerging[last] > res.Covering[last] {
		t.Errorf("perfect merging (%d) did not compact below covering (%d)",
			res.PerfectMerging[last], res.Covering[last])
	}
	if res.ImperfectMerging[last] > res.PerfectMerging[last] {
		t.Errorf("imperfect merging (%d) did not compact below perfect (%d)",
			res.ImperfectMerging[last], res.PerfectMerging[last])
	}
	if res.ImperfectMerging[last] >= res.Covering[last] {
		t.Errorf("imperfect merging (%d) must compact strictly below covering (%d)",
			res.ImperfectMerging[last], res.Covering[last])
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := RunFig8(Fig8Options{N: 1000, BatchSize: 250})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		total := 0.0
		for _, v := range xs {
			total += v
		}
		return total / float64(len(xs))
	}
	// Covering must cut processing time for both DTDs, more for NITF whose
	// advertisement set is far larger.
	if mean(res.NITFCov) >= mean(res.NITFNoCov) {
		t.Errorf("NITF covering %.4f >= no covering %.4f", mean(res.NITFCov), mean(res.NITFNoCov))
	}
	if mean(res.PSDCov) >= mean(res.PSDNoCov) {
		t.Errorf("PSD covering %.4f >= no covering %.4f", mean(res.PSDCov), mean(res.PSDNoCov))
	}
	if res.NITFAdvs < 20*res.PSDAdvs {
		t.Errorf("advertisement ratio %d/%d below expectation", res.NITFAdvs, res.PSDAdvs)
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := RunTable1(Table1Options{N: 2000, Docs: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name string
		s    Table1Set
	}{{"A", res.SetA}, {"B", res.SetB}} {
		if set.s.Covering.Walk >= set.s.NoCovering.Walk {
			t.Errorf("set %s: covering %.4f >= no covering %.4f", set.name, set.s.Covering.Walk, set.s.NoCovering.Walk)
		}
		if set.s.Covering.Entries >= set.s.NoCovering.Entries {
			t.Errorf("set %s: covering table not smaller", set.name)
		}
		if set.s.ImperfectMerging.Entries > set.s.PerfectMerging.Entries {
			t.Errorf("set %s: imperfect merging table larger than perfect", set.name)
		}
		// The automaton compiled from a table routes exactly like the
		// table's tree walk.
		for _, c := range []struct {
			method string
			cell   Table1Cell
		}{
			{"no covering", set.s.NoCovering}, {"covering", set.s.Covering},
			{"perfect merging", set.s.PerfectMerging}, {"imperfect merging", set.s.ImperfectMerging},
		} {
			if c.cell.WalkMatches != c.cell.NFAMatches || c.cell.WalkMatches == 0 {
				t.Errorf("set %s, %s: tree walk reports %d matches, automaton %d",
					set.name, c.method, c.cell.WalkMatches, c.cell.NFAMatches)
			}
		}
	}
	// Set A (higher overlap) must benefit more, as in the paper's 84.6%
	// vs 47.5%.
	gainA := 1 - res.SetA.Covering.Walk/res.SetA.NoCovering.Walk
	gainB := 1 - res.SetB.Covering.Walk/res.SetB.NoCovering.Walk
	if gainA <= gainB {
		t.Errorf("set A gain %.2f not above set B gain %.2f", gainA, gainB)
	}
}

func TestNetworkShape(t *testing.T) {
	res, err := RunNetwork(NetworkOptions{Levels: 3, SubsPerSubscriber: 60, Docs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Brokers != 7 || len(res.Rows) != 6 {
		t.Fatalf("brokers=%d rows=%d", res.Brokers, len(res.Rows))
	}
	byName := make(map[string]NetworkRow, len(res.Rows))
	for _, row := range res.Rows {
		byName[row.Strategy] = row
	}
	// Advertisements must cut traffic versus flooding.
	if byName["with-Adv-no-Cov"].Traffic >= byName["no-Adv-no-Cov"].Traffic {
		t.Errorf("advertisements did not reduce traffic: %d vs %d",
			byName["with-Adv-no-Cov"].Traffic, byName["no-Adv-no-Cov"].Traffic)
	}
	// Covering must cut traffic further.
	if byName["with-Adv-with-Cov"].Traffic >= byName["with-Adv-no-Cov"].Traffic {
		t.Errorf("covering did not reduce traffic: %d vs %d",
			byName["with-Adv-with-Cov"].Traffic, byName["with-Adv-no-Cov"].Traffic)
	}
	// Every strategy must deliver the same set of publications (routing
	// optimisations must not lose messages).
	want := byName["no-Adv-no-Cov"].Delivered
	for _, row := range res.Rows {
		if row.Delivered != want {
			t.Errorf("%s delivered %d, want %d", row.Strategy, row.Delivered, want)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	res, err := RunFig9(Fig9Options{Subs: 250, Docs: 50, Degrees: []float64{0, 0.2, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].FalsePositives != 0 {
		t.Errorf("perfect merging produced %d false positives", res.Points[0].FalsePositives)
	}
	if res.Points[2].FalsePositives == 0 {
		t.Error("tolerant merging produced no in-network false positives at all")
	}
	if res.Points[2].FalsePositivePct < res.Points[1].FalsePositivePct {
		t.Errorf("false positives did not grow with the degree: %v", res.Points)
	}
	// Deliveries to clients must be identical across degrees: false
	// positives stay inside the network.
	for _, p := range res.Points[1:] {
		if p.Delivered != res.Points[0].Delivered {
			t.Errorf("deliveries changed with degree: %v", res.Points)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := RunFig10(DelayOptions{
		DocBytes:          []int{2 << 10, 20 << 10},
		Hops:              []int{2, 4, 6},
		DocsPerSize:       3,
		SubsPerSubscriber: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		// Delay grows with hops.
		if !(s.DelayMs[0] < s.DelayMs[len(s.DelayMs)-1]) {
			t.Errorf("series %+v: delay not increasing with hops", s)
		}
	}
	// Covering must not be slower than no covering at the far end.
	series := map[[2]interface{}]DelaySeries{}
	for _, s := range res.Series {
		series[[2]interface{}{s.DocBytes, s.Covering}] = s
	}
	for _, size := range []int{2 << 10, 20 << 10} {
		cov := series[[2]interface{}{size, true}]
		nocov := series[[2]interface{}{size, false}]
		last := len(cov.DelayMs) - 1
		if cov.DelayMs[last] > nocov.DelayMs[last]*1.1 {
			t.Errorf("size %d: covering slower (%.3f) than no covering (%.3f)",
				size, cov.DelayMs[last], nocov.DelayMs[last])
		}
	}
}
