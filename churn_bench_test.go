package xmlrouter

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/pmatch"
	"repro/internal/xpath"
)

// This file measures what one control-plane change costs. The broker edits
// its persistent matching table (DESIGN.md §5g) at the point of change —
// one expression's path copied and resealed — so a subscribe or
// unsubscribe must cost the same at any table size. BENCH_churn.json
// records measured numbers (TestEmitChurnBench writes it).

// churnXPEs generates n distinct subscriptions over a BOUNDED 200-name
// element alphabet — like a real DTD-driven workload, where a million
// subscribers share a few hundred element names. Uniqueness is structural,
// not symbolic: the trailing three steps spell base+i in base 200, so no
// broker-level subscribe is ever a no-op duplicate and disjoint base ranges
// yield disjoint sets. (Interning a fresh name per subscription would be
// unrealistic, and every name interned stays in symtab for good.) A random
// one-to-three-step prefix spreads the roots over the alphabet; one in ten
// expressions is relative.
func churnXPEs(base, n int, seed int64) []*xpath.XPE {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}
	out := make([]*xpath.XPE, n)
	for i := range out {
		prefix := 1 + r.Intn(3)
		steps := make([]xpath.Step, 0, prefix+3)
		for j := 0; j < prefix; j++ {
			axis := xpath.Child
			if j > 0 && r.Intn(4) == 0 {
				axis = xpath.Descendant
			}
			name := names[r.Intn(len(names))]
			if j > 0 && r.Intn(10) == 0 {
				name = xpath.Wildcard
			}
			steps = append(steps, xpath.Step{Axis: axis, Name: name})
		}
		for v, k := base+i, 0; k < 3; k++ {
			steps = append(steps, xpath.Step{Axis: xpath.Child, Name: names[v%len(names)]})
			v /= len(names)
		}
		out[i] = xpath.New(r.Intn(10) == 0, steps...)
	}
	return out
}

// loadTable fills a matching table with size subscriptions and seals it:
// the automaton a broker holding them publishes.
func loadTable(size int) *pmatch.Table {
	tbl := pmatch.NewTable()
	for i, x := range churnXPEs(0, size, 3) {
		tbl.Add(x, i)
	}
	tbl.Seal()
	return tbl
}

// tableChange is one subscribe+unsubscribe pair at the matching-table
// layer, each change sealed into a new version as the broker does.
func tableChange(tbl *pmatch.Table, x *xpath.XPE) {
	h := tbl.Add(x, -1)
	tbl.Seal()
	tbl.Remove(h)
	tbl.Seal()
}

// churnBroker returns a broker pre-populated with size subscriptions from
// neighbour n1 (covering on, no advertisements), cached across benchmark
// rounds and tests: each measured op is a subscribe+unsubscribe pair, so
// the table always returns to its initial contents.
func churnBroker(size int) *broker.Broker {
	if br, ok := churnBrokers[size]; ok {
		return br
	}
	br := broker.New(broker.Config{ID: "b1", UseCovering: true},
		func(to string, m *broker.Message) {})
	br.AddNeighbor("n1")
	for _, x := range churnXPEs(0, size, 1) {
		br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: x}, "n1")
	}
	churnBrokers[size] = br
	return br
}

var churnBrokers = map[int]*broker.Broker{}

// churnBrokerTableSize is the pre-populated table behind
// BenchmarkControlChurn.
const churnBrokerTableSize = 2000

// BenchmarkControlChurn measures steady-state control-plane churn through
// the real broker: one subscribe of a fresh expression plus its unsubscribe
// per op, against a pre-populated table.
func BenchmarkControlChurn(b *testing.B) {
	b.Run(fmt.Sprintf("subs=%d", churnBrokerTableSize), func(b *testing.B) {
		br := churnBroker(churnBrokerTableSize)
		fresh := churnXPEs(churnBrokerTableSize, b.N, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br.HandleMessage(&broker.Message{Type: broker.MsgSubscribe, XPE: fresh[i]}, "n1")
			br.HandleMessage(&broker.Message{Type: broker.MsgUnsubscribe, XPE: fresh[i]}, "n1")
		}
	})
}

// BenchmarkTableChange isolates the matching-table share of one change at
// table sizes where populating a live broker would be dominated by the
// covering scan: one subscribe+unsubscribe pair of a fresh expression per
// op.
func BenchmarkTableChange(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("subs=%d", size), func(b *testing.B) {
			tbl := loadTable(size)
			fresh := churnXPEs(size, 1024, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tableChange(tbl, fresh[i%len(fresh)])
			}
		})
	}
}

// Per-change ceilings for TestEmitChurnBench. They hold at every table
// size: a change costs one expression's path, never the table. Measured
// values sit well below them (BENCH_churn.json); the slack absorbs CI noise,
// while any per-change work proportional to the table — a recompile, a table
// walk, a copied fan-out that grows with N — overshoots at 1M.
const (
	churnCeilingUS     = 200.0 // µs per subscribe+unsubscribe pair
	churnCeilingAllocs = 120.0 // allocations per pair
)

// TestEmitChurnBench is the CI bench-smoke for the control plane: it loads
// the matching table with 100k and then 1M subscriptions, measures
// µs and allocations per subscribe+unsubscribe pair of fresh expressions
// (each change sealed into a new version, as the broker publishes it), and
// writes the result as JSON to the file named by BENCH_CHURN_OUT (skipped
// when unset). Both sizes must stay under the same per-change ceiling.
func TestEmitChurnBench(t *testing.T) {
	out := os.Getenv("BENCH_CHURN_OUT")
	if out == "" {
		t.Skip("BENCH_CHURN_OUT not set")
	}
	const pairs = 2000
	type sizeResult struct {
		Subscriptions int     `json:"subscriptions"`
		States        int     `json:"states"`
		LoadMS        float64 `json:"load_ms"`
		USPerPair     float64 `json:"us_per_pair"`
		AllocsPerPair float64 `json:"allocs_per_pair"`
	}
	var results []sizeResult
	for _, size := range []int{100_000, 1_000_000} {
		start := time.Now()
		tbl := loadTable(size)
		load := time.Since(start)
		fresh := churnXPEs(size, pairs, 2)
		for _, x := range fresh {
			x.Syms() // intern outside the measurement, like a decoded message
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start = time.Now()
		for _, x := range fresh {
			tableChange(tbl, x)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		r := sizeResult{
			Subscriptions: size,
			States:        tbl.Seal().Stats().States,
			LoadMS:        load.Seconds() * 1e3,
			USPerPair:     elapsed.Seconds() * 1e6 / pairs,
			AllocsPerPair: float64(after.Mallocs-before.Mallocs) / pairs,
		}
		if n := tbl.Seal().NumEntries(); n != size {
			t.Fatalf("table holds %d entries after the churn, want %d", n, size)
		}
		if r.USPerPair > churnCeilingUS || r.AllocsPerPair > churnCeilingAllocs {
			t.Errorf("subs=%d: %.1f µs and %.1f allocs per pair, ceiling %.0f µs and %.0f allocs",
				size, r.USPerPair, r.AllocsPerPair, churnCeilingUS, churnCeilingAllocs)
		}
		results = append(results, r)
	}

	doc := struct {
		Benchmark     string       `json:"benchmark"`
		Host          string       `json:"host"`
		CPUs          int          `json:"cpus"`
		Go            string       `json:"go"`
		Pairs         int          `json:"pairs"`
		CeilingUS     float64      `json:"ceiling_us_per_pair"`
		CeilingAllocs float64      `json:"ceiling_allocs_per_pair"`
		Sizes         []sizeResult `json:"sizes"`
	}{
		Benchmark:     "per-control-change cost of the persistent matching table: one subscribe+unsubscribe pair, each change sealed (DESIGN.md §5g)",
		Host:          runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Go:            runtime.Version(),
		Pairs:         pairs,
		CeilingUS:     churnCeilingUS,
		CeilingAllocs: churnCeilingAllocs,
		Sizes:         results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Logf("subs=%d: %.1f µs, %.1f allocs per pair (load %.0f ms, %d states)",
			r.Subscriptions, r.USPerPair, r.AllocsPerPair, r.LoadMS, r.States)
	}
}
