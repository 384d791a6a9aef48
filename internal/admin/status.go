package admin

import (
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/slowlog"
	"repro/internal/trace"
)

// Status produces the machine-readable /statusz snapshot: one JSON document
// per scrape with the broker's identity, uptime, raw counter and gauge
// values, per-scrape rates computed from counter deltas, and per-stage
// latency quantiles interpolated from histogram buckets. It is the data
// source xtop polls; everything it reports is derived from the metrics
// registry plus the injected callbacks, so it adds no instrumentation of its
// own.
//
// Rates are stateful: each Snapshot remembers the counter values it saw and
// the next Snapshot reports (cur-prev)/dt per counter. A counter that went
// backwards (process restart behind the same address, registry swap) is
// treated as reset: the delta is the current value, the standard
// counter-reset convention. The first scrape reports no rates.
type Status struct {
	// Broker is the broker ID reported in every snapshot.
	Broker string
	// Started anchors the uptime computation.
	Started time.Time
	// Registry is the broker's metrics registry (nil leaves counters,
	// gauges, rates, and stages empty).
	Registry *metrics.Registry
	// Links, when non-nil, reports neighbour-link health; the transport
	// server's Links method fits. The value is embedded verbatim in the
	// snapshot JSON.
	Links func() any
	// Queues, when non-nil, reports per-peer send-queue depths; the
	// transport server's QueueDepths method fits.
	Queues func() map[string]int
	// Slow, when non-nil, contributes the flight recorder's capture count
	// and threshold.
	Slow *slowlog.Log
	// Table, when non-nil, reports the matching table's state; the broker's
	// TableStatus method fits. The value is embedded verbatim in the
	// snapshot JSON.
	Table func() any
	// Publog, when non-nil, reports the publication log backing durable
	// subscriptions (segments, bytes, per-name cursors); the publog store's
	// Status method fits. The value is embedded verbatim in the snapshot
	// JSON.
	Publog func() any

	// Now, when non-nil, replaces time.Now — tests inject a fake clock to
	// exercise rate computation deterministically.
	Now func() time.Time

	mu     sync.Mutex
	prev   map[string]float64
	prevAt time.Time
}

// StageQuantiles is one pipeline stage's latency summary, interpolated from
// the xbroker_stage_seconds histogram buckets (histogram_quantile-style).
type StageQuantiles struct {
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// StatusSnapshot is the /statusz response body.
type StatusSnapshot struct {
	Broker        string  `json:"broker"`
	UnixNano      int64   `json:"unix_nano"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Epoch mirrors the xbroker_snapshot_epoch gauge for convenience.
	Epoch uint64 `json:"epoch,omitempty"`
	// Counters and Gauges hold every scalar series, keyed by full series
	// identity (name plus rendered labels).
	Counters map[string]float64 `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// RatesPerSec holds per-counter rates from deltas against the previous
	// scrape; absent on the first scrape.
	RatesPerSec map[string]float64 `json:"rates_per_sec,omitempty"`
	// Stages summarises the publish pipeline's stage latencies in pipeline
	// order (decode, match, filter, enqueue, flush).
	Stages []StageQuantiles `json:"stages,omitempty"`
	// Links is the transport's neighbour-link health (see transport.LinkStatus).
	Links any `json:"links,omitempty"`
	// Queues maps peer ID to outbound send-queue depth.
	Queues map[string]int `json:"queues,omitempty"`
	// SlowTotal and SlowThresholdSeconds summarise the flight recorder; the
	// captured entries themselves are served by /debug/slow.
	SlowTotal            int64   `json:"slow_total,omitempty"`
	SlowThresholdSeconds float64 `json:"slow_threshold_seconds,omitempty"`
	// Table is the matching table's state (see broker.TableStatus):
	// entries, states, the last snapshot epoch that changed it, and how long
	// that control message took to handle.
	Table any `json:"table,omitempty"`
	// Publog is the durable-subscription publication log's state (see
	// publog.Status): segment count, byte size, and per-name cursor lag.
	Publog any `json:"publog,omitempty"`
}

// stageOrder fixes the pipeline order for the Stages list.
var stageOrder = map[string]int{
	trace.StageDecode:  0,
	trace.StageMatch:   1,
	trace.StageFilter:  2,
	trace.StageEnqueue: 3,
	trace.StageFlush:   4,
}

// Snapshot assembles one /statusz document and advances the rate baseline.
// Safe for concurrent use.
func (st *Status) Snapshot() StatusSnapshot {
	now := time.Now
	if st.Now != nil {
		now = st.Now
	}
	t := now()
	out := StatusSnapshot{
		Broker:        st.Broker,
		UnixNano:      t.UnixNano(),
		UptimeSeconds: t.Sub(st.Started).Seconds(),
	}
	if st.Registry != nil {
		cur := make(map[string]float64)
		for _, p := range st.Registry.Export() {
			switch p.Type {
			case "counter":
				if out.Counters == nil {
					out.Counters = make(map[string]float64)
				}
				out.Counters[p.Key] = p.Value
				cur[p.Key] = p.Value
			case "gauge":
				if out.Gauges == nil {
					out.Gauges = make(map[string]float64)
				}
				out.Gauges[p.Key] = p.Value
			case "histogram":
				if p.Name != "xbroker_stage_seconds" || p.Histogram == nil {
					continue
				}
				h := p.Histogram
				out.Stages = append(out.Stages, StageQuantiles{
					Stage: p.Labels["stage"],
					Count: h.Count,
					P50:   h.Quantile(0.50),
					P90:   h.Quantile(0.90),
					P99:   h.Quantile(0.99),
				})
			}
		}
		sort.Slice(out.Stages, func(i, j int) bool {
			return stageOrder[out.Stages[i].Stage] < stageOrder[out.Stages[j].Stage]
		})
		out.Epoch = uint64(out.Gauges["xbroker_snapshot_epoch"])
		out.RatesPerSec = st.rates(cur, t)
	}
	if st.Links != nil {
		out.Links = st.Links()
	}
	if st.Queues != nil {
		out.Queues = st.Queues()
	}
	if st.Slow != nil {
		out.SlowTotal = st.Slow.Total()
		out.SlowThresholdSeconds = st.Slow.Threshold().Seconds()
	}
	if st.Table != nil {
		out.Table = st.Table()
	}
	if st.Publog != nil {
		out.Publog = st.Publog()
	}
	return out
}

// rates computes per-counter rates against the previous scrape and installs
// cur as the new baseline.
func (st *Status) rates(cur map[string]float64, t time.Time) map[string]float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev, prevAt := st.prev, st.prevAt
	st.prev, st.prevAt = cur, t
	if prev == nil {
		return nil
	}
	dt := t.Sub(prevAt).Seconds()
	if dt <= 0 {
		return nil
	}
	out := make(map[string]float64, len(cur))
	for k, v := range cur {
		d := v - prev[k]
		if d < 0 {
			// Counter reset: the series restarted from zero, so everything
			// it shows now accumulated since the reset.
			d = v
		}
		out[k] = d / dt
	}
	return out
}
