package xmlrouter

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"repro/internal/broker"
	"repro/internal/dtddata"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/xmldoc"
)

// TestEmitLatencyBench is the CI bench-smoke for the latency observability
// layer: it routes a Table 1-style workload through one instrumented broker
// and writes per-stage publish-path quantiles as JSON to the file named by
// BENCH_LATENCY_OUT (skipped when unset, so the test costs nothing in a
// normal run). The repository keeps a copy as BENCH_latency.json, and CI
// archives a fresh one, so stage-latency regressions are visible across
// commits.
func TestEmitLatencyBench(t *testing.T) {
	out := os.Getenv("BENCH_LATENCY_OUT")
	if out == "" {
		t.Skip("BENCH_LATENCY_OUT not set")
	}

	set, err := experiment.BuildCoveringSet(dtddata.NITF(), 2000, 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	dg := gen.NewDocGenerator(dtddata.NITF(), 6)
	dg.AvgRepeat = 1.5
	var pubs []xmldoc.Publication
	for i := 0; i < 100; i++ {
		pubs = append(pubs, xmldoc.Extract(dg.Generate(), uint64(i))...)
	}

	reg := metrics.NewRegistry()
	br := broker.New(broker.Config{ID: "b1", UseCovering: true, Metrics: reg},
		func(to string, m *broker.Message) {})
	br.AddClient("sub")
	for _, x := range set.XPEs {
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "sub")
	}
	const n = 5000
	for i := 0; i < n; i++ {
		br.HandleMessage(&broker.Message{Type: broker.MsgPublish, Pub: pubs[i%len(pubs)]}, "producer")
	}

	type stageQuantiles struct {
		Stage string  `json:"stage"`
		Count int64   `json:"count"`
		P50   float64 `json:"p50_seconds"`
		P99   float64 `json:"p99_seconds"`
	}
	doc := struct {
		Host          string           `json:"host"`
		CPUs          int              `json:"cpus"`
		Go            string           `json:"go"`
		Subscriptions int              `json:"subscriptions"`
		Publications  int              `json:"publications"`
		Stages        []stageQuantiles `json:"stages"`
	}{
		Host:          runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Go:            runtime.Version(),
		Subscriptions: len(set.XPEs),
		Publications:  n,
	}
	for _, p := range reg.Export() {
		if p.Name != "xbroker_stage_seconds" || p.Histogram == nil {
			continue
		}
		doc.Stages = append(doc.Stages, stageQuantiles{
			Stage: p.Labels["stage"],
			Count: p.Histogram.Count,
			P50:   p.Histogram.Quantile(0.50),
			P99:   p.Histogram.Quantile(0.99),
		})
	}
	if len(doc.Stages) < 3 {
		t.Fatalf("only %d stage histograms populated", len(doc.Stages))
	}
	for _, s := range doc.Stages {
		if s.Count != n {
			t.Errorf("stage %s count = %d, want %d", s.Stage, s.Count, n)
		}
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d stages)", out, len(doc.Stages))
}
