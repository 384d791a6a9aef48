package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at a tenth of
// its input size for a second with one setup, untraced and traced, and
// checks that no operation fails and that each run prints exactly the
// metrics BENCHMARK.json names for its mode, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for n := range workloads {
		defined = append(defined, n)
	}
	sort.Strings(names)
	sort.Strings(defined)
	if strings.Join(names, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, harness defines %v", names, defined)
	}
	for _, name := range names {
		for mode, want := range map[string][]benchmarkMetric{"0": bench.EndToEnd, "1": bench.PerLayer} {
			var stdout, stderr bytes.Buffer
			cfg := config{w: workloads[name].scaled(0.1), seed: 1, seconds: 1, trace: mode == "1", setups: 1}
			if code := report(cfg, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", name, mode, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", name, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", name, mode, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json names %d", name, mode, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v (printed: %v), want unit %q", name, mode, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// scaled shrinks a workload's input sizes; the rates, windows and
// advertisement set stay as defined.
func (w workload) scaled(f float64) workload {
	shrink := func(n, floor int) int {
		if m := int(float64(n) * f); m > floor {
			return m
		}
		return floor
	}
	w.subs = shrink(w.subs, 50)
	w.paths = shrink(w.paths, 500)
	w.docs = shrink(w.docs, 10)
	w.warmup = shrink(w.warmup, 10)
	return w
}
