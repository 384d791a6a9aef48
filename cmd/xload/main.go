// Command xload is the end-to-end benchmark of the broker network. It boots
// the production TCP stack as a three-broker chain b1–b2–b3 inside one
// process, configured as cmd/xbroker is by default, drives one publisher
// connection at b1 and one subscriber connection at b3, checks every
// delivery against a per-expression oracle, and prints its metrics by name
// and unit as one JSON object on the last line of standard output:
//
//	xload -workload path-setA -seed 1 -seconds 10 -trace 0
//
// -trace 0 sets the chain up three times and drives an open loop on each,
// printing the end-to-end metrics. -trace 1 sets up once, measures the
// end-to-end timings in an open and a closed loop, traces 1 in 64
// publications of a third phase, replays the same inputs through each
// layer's entry point, and prints the per-layer metrics. README.md describes
// the workloads, the metrics and the noise controls; run.sh builds and runs
// it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is what the benchmark prints as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	spans   string
	setups  int
}

// setupsPerRun is how many times an untraced run sets the chain up;
// setup_s and table_heap_mb are the medians.
const setupsPerRun = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed (1 is the default seed, 2 the held-out one)")
	seconds := fs.Float64("seconds", 10, "measured seconds: the open loop, split over the setups (traced: open loop, closed loop and traced open loop, a third each)")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	spans := fs.String("spans", "", "file a traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "xload: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	return report(config{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1, spans: *spans, setups: setupsPerRun}, stdout, stderr)
}

// report runs the benchmark and prints its result as the last line of
// stdout; diagnostics go to stderr.
func report(cfg config, stdout, stderr io.Writer) int {
	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "xload: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "xload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func bench(cfg config, logw io.Writer) (*result, error) {
	w := cfg.w
	in, err := genInputs(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	expected := 0
	for _, e := range in.expect {
		if e {
			expected++
		}
	}
	fmt.Fprintf(logw, "xload: seed %d: %d subscriptions (%d upstream), %d/%d advertisements kept, %d pool items (%.1f%% delivered), %d oracle keys, GOMAXPROCS %d\n",
		cfg.seed, len(in.subs), in.upstream, in.srt, len(in.advs), in.poolLen(),
		100*float64(expected)/float64(in.poolLen()), in.keys, runtime.GOMAXPROCS(0))

	// Each setup's chain carries an equal share of the measured open loop
	// before the next setup replaces it, which spreads the measurement over
	// the whole run. A traced run sets up once.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	measured := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	var setupSecs, heapMB []float64
	var pubs, mallocs, linkTx float64
	var missing, unexpected, duplicates, unapplied int64
	for i := 0; i < setups; i++ {
		c, s, err := setup(in)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, s.seconds)
		heapMB = append(heapMB, s.heapMB)
		sends := w.warmup + int(float64(w.rate)*cfg.seconds/float64(setups))
		if cfg.trace {
			sends += int(maxClosedRate(w) * cfg.seconds / 3)
		}
		r := newRunner(in, c, sends)
		ctl, err := func() (churnResult, error) {
			warmup := time.Duration(w.warmup) * time.Second / time.Duration(w.rate)
			if _, err := r.openLoop(warmup, 0, nil); err != nil {
				return churnResult{}, err
			}
			if w.churn {
				r.churn = r.startChurn()
			}
			if cfg.trace {
				return traceRun(r, measured/3, cfg.spans, res.Metrics)
			}
			runtime.GC()
			open, err := r.openLoop(measured/time.Duration(setups), 0, nil)
			var ctl churnResult
			if r.churn != nil {
				if ctl = r.churn.stop(); err == nil {
					err = ctl.err
				}
			}
			if err == nil {
				pubs += float64(open.end - open.first)
				mallocs += float64(open.use.mallocs)
				linkTx += float64(open.use.linkTx)
			}
			return ctl, err
		}()
		missing += r.finish()
		c.close()
		if err != nil {
			return nil, err
		}
		res.Attempted += 1 + int64(r.next) + int64(ctl.changes)
		unexpected += r.unexpected.Load()
		duplicates += r.duplicates.Load()
		unapplied += int64(ctl.failed)
	}
	if !cfg.trace {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		put("setup_s", "s", median(setupSecs))
		put("allocs_per_pub", "1", mallocs/pubs)
		put("link_bytes_per_pub", "B", linkTx/pubs)
		put("table_heap_mb", "MB", median(heapMB))
	}
	res.Failed = missing + unexpected + duplicates + unapplied
	res.Correct = res.Failed == 0
	fmt.Fprintf(logw, "xload: ops_attempted=%d ops_failed=%d (missing %d, unexpected %d, duplicate %d, control changes not applied %d)\n",
		res.Attempted, res.Failed, missing, unexpected, duplicates, unapplied)
	return res, nil
}
