// Command xtop is a cluster-wide terminal dashboard for the dissemination
// network: it polls each broker's /statusz admin endpoint and renders a
// refreshing table of throughput rates, per-stage publish-path latency
// quantiles, link health, queue depths, and flight-recorder activity — the
// operator's one-screen answer to "is the overlay healthy and where is the
// latency".
//
//	xtop -brokers 127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003
//
// With -once the dashboard renders a single frame and exits; with -once
// -json it emits the raw per-broker status documents instead — the mode CI
// smoke tests and scripts consume.
//
// Rates are computed client-side from counter deltas between consecutive
// polls (counter resets — a restarted broker — surface as a rate computed
// from the post-reset value, never as a negative rate), so xtop does not
// disturb any other scraper's server-side rate baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// stageOrder fixes the column order of the stage table: the publish
// pipeline's own order.
var stageOrder = []string{"decode", "match", "filter", "enqueue", "flush"}

// linkInfo mirrors transport.LinkStatus's JSON.
type linkInfo struct {
	Peer       string  `json:"peer"`
	Up         bool    `json:"up"`
	QueueDepth int     `json:"queue_depth"`
	TxBytes    int64   `json:"tx_bytes"`
	BatchP50   float64 `json:"batch_p50"`
}

// stageQ mirrors admin.StageQuantiles's JSON.
type stageQ struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// tableInfo mirrors broker.TableStatus's JSON.
type tableInfo struct {
	Entries          int     `json:"entries"`
	States           int     `json:"states"`
	Epoch            uint64  `json:"epoch"`
	LastBuildSeconds float64 `json:"last_build_seconds"`
}

// status mirrors admin.StatusSnapshot's JSON.
type status struct {
	Broker               string             `json:"broker"`
	UnixNano             int64              `json:"unix_nano"`
	UptimeSeconds        float64            `json:"uptime_seconds"`
	Epoch                uint64             `json:"epoch"`
	Counters             map[string]float64 `json:"counters"`
	Gauges               map[string]float64 `json:"gauges"`
	RatesPerSec          map[string]float64 `json:"rates_per_sec"`
	Stages               []stageQ           `json:"stages"`
	Links                []linkInfo         `json:"links"`
	Queues               map[string]int     `json:"queues"`
	SlowTotal            int64              `json:"slow_total"`
	SlowThresholdSeconds float64            `json:"slow_threshold_seconds"`
	Table                *tableInfo         `json:"table"`
}

// result is one poll of one broker.
type result struct {
	Target string  `json:"target"`
	Error  string  `json:"error,omitempty"`
	Status *status `json:"status,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("xtop", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		brokers  = fs.String("brokers", "", "comma-separated broker admin addresses (host:port)")
		interval = fs.Duration("interval", 2*time.Second, "poll interval in live mode")
		once     = fs.Bool("once", false, "render one frame and exit")
		jsonOut  = fs.Bool("json", false, "with -once: emit raw per-broker status JSON instead of the table")
		timeout  = fs.Duration("timeout", 2*time.Second, "per-request HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	targets := splitTargets(*brokers)
	if len(targets) == 0 {
		fmt.Fprintln(out, "xtop: no brokers given (use -brokers host:port,host:port,...)")
		return 2
	}
	client := &http.Client{Timeout: *timeout}

	prev := make(map[string]*status) // previous poll, for client-side rates
	var prevAt time.Time
	poll := func() []result {
		now := time.Now()
		results := make([]result, len(targets))
		for i, t := range targets {
			results[i] = pollOne(client, t)
		}
		for _, r := range results {
			if r.Status != nil {
				computeRates(r.Status, prev[r.Target], now.Sub(prevAt))
				prev[r.Target] = r.Status
			}
		}
		prevAt = now
		return results
	}

	if *once {
		results := poll()
		if *jsonOut {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			enc.Encode(results)
		} else {
			render(out, results, false)
		}
		for _, r := range results {
			if r.Error == "" {
				return 0 // at least one broker answered
			}
		}
		return 1
	}

	// Live mode: redraw forever. The first frame has no rate baseline, so
	// poll once, wait a beat, and start rendering with real rates.
	poll()
	for {
		time.Sleep(*interval)
		render(out, poll(), true)
	}
}

// splitTargets parses the -brokers list, tolerating empty elements.
func splitTargets(spec string) []string {
	var out []string
	for _, t := range strings.Split(spec, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// pollOne fetches one broker's /statusz.
func pollOne(client *http.Client, target string) result {
	url := target
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/statusz")
	if err != nil {
		return result{Target: target, Error: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return result{Target: target, Error: fmt.Sprintf("status %d", resp.StatusCode)}
	}
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return result{Target: target, Error: err.Error()}
	}
	return result{Target: target, Status: &st}
}

// computeRates overwrites the status's rate map with client-side deltas
// against the previous poll. A counter that went backwards is a reset: the
// delta is the current value (the standard counter-reset convention). With
// no previous poll the rates stay as the server reported them.
func computeRates(cur, prev *status, dt time.Duration) {
	if prev == nil || dt <= 0 {
		return
	}
	rates := make(map[string]float64, len(cur.Counters))
	for k, v := range cur.Counters {
		d := v - prev.Counters[k]
		if d < 0 {
			d = v
		}
		rates[k] = d / dt.Seconds()
	}
	cur.RatesPerSec = rates
}

// render draws the two dashboard tables; clear prefixes the ANSI
// home+erase sequence for live refreshing.
func render(out io.Writer, results []result, clear bool) {
	var b strings.Builder
	if clear {
		b.WriteString("\x1b[H\x1b[2J")
	}
	fmt.Fprintf(&b, "xtop — %s\n\n", time.Now().Format("15:04:05"))

	// Overview table.
	tw := newTable(&b, "BROKER", "TARGET", "UP", "EPOCH", "PUB/S", "DLV/S", "LINKS", "WIRE", "QMAX", "SLOW", "NFA", "LAG")
	for _, r := range results {
		if r.Status == nil {
			tw.row("?", r.Target, "DOWN", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		st := r.Status
		up, total := 0, len(st.Links)
		for _, l := range st.Links {
			if l.Up {
				up++
			}
		}
		qmax := 0
		for _, d := range st.Queues {
			if d > qmax {
				qmax = d
			}
		}
		tw.row(
			st.Broker,
			r.Target,
			formatUptime(st.UptimeSeconds),
			fmt.Sprint(st.Epoch),
			formatRate(rateOf(st, `xbroker_msgs_in_total{type="publish"}`)),
			formatRate(rateOf(st, "xbroker_deliveries_total")),
			fmt.Sprintf("%d/%d", up, total),
			formatWire(st),
			fmt.Sprint(qmax),
			fmt.Sprint(st.SlowTotal),
			formatTable(st.Table),
			formatLag(st),
		)
	}
	tw.flush()

	// Stage-latency table: p50/p99 per pipeline stage.
	b.WriteString("\nstage latency p50 / p99\n")
	cols := append([]string{"BROKER"}, stageOrder...)
	tw = newTable(&b, cols...)
	for _, r := range results {
		if r.Status == nil {
			continue
		}
		byStage := make(map[string]stageQ, len(r.Status.Stages))
		for _, s := range r.Status.Stages {
			byStage[s.Stage] = s
		}
		row := []string{r.Status.Broker}
		for _, name := range stageOrder {
			s, ok := byStage[name]
			if !ok || s.Count == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, formatDur(s.P50)+" / "+formatDur(s.P99))
		}
		tw.row(row...)
	}
	tw.flush()
	io.WriteString(out, b.String())
}

// rateOf reads one counter's rate, trying the exact series key first and
// falling back to a bare-name match (labelled series keys embed the
// rendered label string).
func rateOf(st *status, key string) float64 {
	if v, ok := st.RatesPerSec[key]; ok {
		return v
	}
	for k, v := range st.RatesPerSec {
		if strings.HasPrefix(k, key) {
			return v
		}
	}
	return -1
}

// formatTable summarises the matching table as "entries@epoch cost" — e.g.
// "1204@17 23.0µs": 1204 automaton entries, last changed at snapshot epoch 17
// by a control message that took 23µs to handle. "-" when the broker does
// not report its table.
func formatTable(t *tableInfo) string {
	if t == nil {
		return "-"
	}
	return fmt.Sprintf("%d@%d %s", t.Entries, t.Epoch, formatDur(t.LastBuildSeconds))
}

// formatLag renders the worst durable-subscription replay backlog — the
// xbroker_publog_lag gauge, the maximum last-logged-minus-acked distance
// across durable names. "-" when the broker runs without a publication log
// (the gauge is absent); "0" is the healthy steady state: every durable
// subscriber attached and acked up to date.
func formatLag(st *status) string {
	v, ok := st.Gauges["xbroker_publog_lag"]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// formatWire summarises the neighbour links' wire state: the worst median
// frames-per-flush across up links and the outbound byte rate from the
// xbroker_wire_tx_bytes_total counter; "-" when neither has a value.
func formatWire(st *status) string {
	batch := 0.0
	for _, l := range st.Links {
		if l.Up && l.BatchP50 > batch {
			batch = l.BatchP50
		}
	}
	var parts []string
	if batch > 0 {
		parts = append(parts, fmt.Sprintf("b%.0f", batch))
	}
	if rate := rateOf(st, "xbroker_wire_tx_bytes_total"); rate > 0 {
		parts = append(parts, formatBytesRate(rate))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// formatBytesRate renders a bytes-per-second rate with a binary unit.
func formatBytesRate(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB/s", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB/s", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB/s", v)
	}
}

func formatRate(v float64) string {
	if v < 0 {
		return "-"
	}
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}

// formatDur renders a seconds value with a duration unit that keeps three
// digits of precision.
func formatDur(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second))
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func formatUptime(seconds float64) string {
	d := time.Duration(seconds * float64(time.Second)).Round(time.Second)
	if d < time.Minute {
		return d.String()
	}
	return d.Round(time.Minute).String()
}

// table is a minimal column-aligned text table.
type table struct {
	w    io.Writer
	cols []string
	rows [][]string
}

func newTable(w io.Writer, cols ...string) *table {
	return &table{w: w, cols: cols}
}

func (t *table) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) flush() {
	width := make([]int, len(t.cols))
	for i, c := range t.cols {
		width[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && cellWidth(c) > width[i] {
				width[i] = cellWidth(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			if i < len(width) {
				c += strings.Repeat(" ", width[i]-cellWidth(c))
			}
			parts = append(parts, c)
		}
		fmt.Fprintln(t.w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.cols)
	for _, r := range t.rows {
		line(r)
	}
	t.rows = t.rows[:0]
}

// cellWidth counts display columns, not bytes — the µ in µs is two bytes
// wide in UTF-8 but one column on screen.
func cellWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// sortResults orders by broker ID, unreachable targets last — used by tests
// for deterministic assertions and by render callers indirectly via target
// order being stable anyway.
func sortResults(rs []result) {
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if (a.Status == nil) != (b.Status == nil) {
			return a.Status != nil
		}
		if a.Status != nil && b.Status != nil {
			return a.Status.Broker < b.Status.Broker
		}
		return a.Target < b.Target
	})
}
