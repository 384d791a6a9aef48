// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Each benchmark runs the corresponding experiment at a reduced
// default scale and reports the figure's headline quantity as custom
// metrics, so `go test -bench` output shows the reproduced shape; the
// cmd/experiments binary prints the full tables (use --full for
// paper-scale runs). EXPERIMENTS.md records paper-vs-measured values.
package xmlrouter

import (
	"testing"

	"repro/internal/experiment"
)

// BenchmarkFig6RoutingTableSize — Figure 6: routing table size with and
// without covering on high- and low-overlap subscription sets.
func BenchmarkFig6RoutingTableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig6(experiment.Fig6Options{N: 4000, Checkpoints: 4})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.N) - 1
		b.ReportMetric(reduction(res.CoveringA[last], res.NoCovering[last]), "reductionA%")
		b.ReportMetric(reduction(res.CoveringB[last], res.NoCovering[last]), "reductionB%")
	}
}

// BenchmarkFig7Merging — Figure 7: further table compaction from perfect
// and imperfect merging.
func BenchmarkFig7Merging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig7(experiment.Fig7Options{N: 4000, Checkpoints: 4})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.N) - 1
		b.ReportMetric(float64(res.Covering[last]), "tableCov")
		b.ReportMetric(float64(res.PerfectMerging[last]), "tablePM")
		b.ReportMetric(float64(res.ImperfectMerging[last]), "tableIPM")
	}
}

// BenchmarkFig8XPEProcessing — Figure 8: per-XPE processing time with and
// without covering, NITF vs PSD.
func BenchmarkFig8XPEProcessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig8(experiment.Fig8Options{N: 2000, BatchSize: 500})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mean(res.NITFCov), "nitfCovMs")
		b.ReportMetric(mean(res.NITFNoCov), "nitfNoCovMs")
		b.ReportMetric(mean(res.PSDCov), "psdCovMs")
		b.ReportMetric(mean(res.PSDNoCov), "psdNoCovMs")
	}
}

// BenchmarkTable1PublicationRouting — Table 1: per-publication routing time
// under the four methods.
func BenchmarkTable1PublicationRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunTable1(experiment.Table1Options{N: 4000, Docs: 60})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SetA.NoCovering.Walk, "A-noCovMs")
		b.ReportMetric(res.SetA.Covering.Walk, "A-covMs")
		b.ReportMetric(res.SetA.ImperfectMerging.Walk, "A-ipmMs")
		b.ReportMetric(res.SetB.Covering.Walk, "B-covMs")
	}
}

// BenchmarkTable2SevenBrokers — Table 2: traffic and delay in the 7-broker
// tree under the six routing strategies.
func BenchmarkTable2SevenBrokers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunNetwork(experiment.NetworkOptions{
			Levels: 3, SubsPerSubscriber: 120, Docs: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTraffic(b, res)
	}
}

// BenchmarkTable3Network127 — Table 3: the 127-broker overlay.
func BenchmarkTable3Network127(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunNetwork(experiment.NetworkOptions{
			Levels: 7, SubsPerSubscriber: 30, Docs: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportTraffic(b, res)
	}
}

// BenchmarkFig9FalsePositives — Figure 9: in-network false positives vs the
// tolerated imperfect degree.
func BenchmarkFig9FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig9(experiment.Fig9Options{
			Subs: 400, Docs: 20, Degrees: []float64{0, 0.1, 0.2},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].FalsePositivePct, "fp%@D0")
		b.ReportMetric(res.Points[1].FalsePositivePct, "fp%@D0.1")
		b.ReportMetric(res.Points[2].FalsePositivePct, "fp%@D0.2")
	}
}

// BenchmarkFig10PSDDelay — Figure 10: PSD notification delay vs hops.
func BenchmarkFig10PSDDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig10(experiment.DelayOptions{
			DocBytes: []int{2 << 10, 20 << 10}, Hops: []int{2, 6},
			DocsPerSize: 3, SubsPerSubscriber: 150,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportDelay(b, res)
	}
}

// BenchmarkFig11NITFDelay — Figure 11: NITF notification delay vs hops.
func BenchmarkFig11NITFDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig11(experiment.DelayOptions{
			DocBytes: []int{2 << 10, 40 << 10}, Hops: []int{2, 6},
			DocsPerSize: 3, SubsPerSubscriber: 150,
		})
		if err != nil {
			b.Fatal(err)
		}
		reportDelay(b, res)
	}
}

func reportTraffic(b *testing.B, res *experiment.NetworkResult) {
	b.Helper()
	byName := make(map[string]experiment.NetworkRow, len(res.Rows))
	for _, row := range res.Rows {
		byName[row.Strategy] = row
	}
	base := float64(byName["no-Adv-no-Cov"].Traffic)
	b.ReportMetric(base, "msgsBase")
	b.ReportMetric(100*float64(byName["with-Adv-no-Cov"].Traffic)/base, "advTraffic%")
	b.ReportMetric(100*float64(byName["with-Adv-with-Cov"].Traffic)/base, "advCovTraffic%")
	b.ReportMetric(byName["no-Adv-no-Cov"].DelayMs, "noCovDelayMs")
	b.ReportMetric(byName["with-Adv-with-Cov"].DelayMs, "covDelayMs")
}

func reportDelay(b *testing.B, res *experiment.DelayResult) {
	b.Helper()
	for _, s := range res.Series {
		if s.DocBytes != res.Series[0].DocBytes {
			continue
		}
		suffix := "noCov"
		if s.Covering {
			suffix = "cov"
		}
		b.ReportMetric(s.DelayMs[len(s.DelayMs)-1], "hop6-"+suffix+"Ms")
	}
}

func reduction(after, before int) float64 {
	if before == 0 {
		return 0
	}
	return 100 * (1 - float64(after)/float64(before))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total / float64(len(xs))
}
