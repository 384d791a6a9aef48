// Package trace implements per-hop publication tracing for the
// dissemination network. A publisher stamps a publication with a TraceID;
// every broker the publication crosses appends a Hop to the hop list
// carried in the transport frame and records an Event — what arrived, where
// from, where it went — into a bounded in-memory Ring. The rings of the
// brokers on a path together reconstruct the full dissemination tree of one
// publication; a single broker's ring already shows the upstream path,
// because the hop list travels with the frame.
//
// Tracing is strictly opt-in per publication: a message without a TraceID
// costs the hot path a single string comparison and nothing else.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
)

// Stage names of the broker publish path, in pipeline order. Within one
// broker every stage is measured on the monotonic clock (time.Since), so
// stage durations are exact; only the per-hop UnixNano wall stamps compare
// across brokers (see DESIGN.md §5f for the clock-domain rules).
const (
	// StageDecode is wire read + decode of the publication frame,
	// measured by the receiving transport from the arrival of the frame's
	// first byte.
	StageDecode = "decode"
	// StageMatch is the routing computation: one shared-automaton run (or
	// the covering tree walk) over the publication's paths or raw bytes.
	StageMatch = "match"
	// StageFilter is post-match routing bookkeeping: hop ordering, edge
	// client filtering, and trace accounting.
	StageFilter = "filter"
	// StageEnqueue is handing the publication to every next hop: encoding
	// its frame onto the connection's staged bytes. It grows under
	// backpressure from full staging buffers.
	StageEnqueue = "enqueue"
	// StageFlush is the writer's wake-up plus the write that carried the
	// frame, from the staged bytes turning non-empty, measured by the
	// sending transport's writer goroutine. It happens after
	// the hop record was forwarded, so it appears in histograms but never in
	// a Hop's stage list — across brokers it is part of the wall-clock gap
	// between consecutive hop stamps.
	StageFlush = "flush"
)

// StageDur is one stage's duration inside one broker crossing.
type StageDur struct {
	Stage string `json:"stage"`
	Nanos int64  `json:"nanos"`
}

// Hop is one broker crossing, carried in the message frame.
type Hop struct {
	// Broker is the crossing broker's ID.
	Broker string `json:"broker"`
	// UnixNano is the broker's wall clock when it matched the publication.
	UnixNano int64 `json:"unix_nano"`
	// Epoch is the broker's routing-snapshot epoch the publication was
	// matched under (0 when the broker predates snapshot routing). Two
	// traced publications crossing one broker with different epochs
	// bracketed a control-plane change.
	Epoch uint64 `json:"epoch,omitempty"`
	// Stages breaks the crossing into per-stage durations (decode, match,
	// filter — the stages known when the hop is appended), measured
	// on the broker's monotonic clock. Send-side time (enqueue, flush, wire)
	// is the remainder of the wall-clock gap to the next hop.
	Stages []StageDur `json:"stages,omitempty"`
}

// StageNanos returns the duration of one named stage, or 0 when absent.
func (h Hop) StageNanos(stage string) int64 {
	for _, s := range h.Stages {
		if s.Stage == stage {
			return s.Nanos
		}
	}
	return 0
}

// TotalStageNanos sums the hop's recorded stage durations — the in-broker
// latency of this crossing.
func (h Hop) TotalStageNanos() int64 {
	var t int64
	for _, s := range h.Stages {
		t += s.Nanos
	}
	return t
}

// Event is one broker's record of one traced publication passing through.
type Event struct {
	// TraceID identifies the publication network-wide.
	TraceID string `json:"trace_id"`
	// Broker is the recording broker.
	Broker string `json:"broker"`
	// From is the peer the publication arrived from ("" for local origins).
	From string `json:"from,omitempty"`
	// Hops is the path up to and including the recording broker.
	Hops []Hop `json:"hops"`
	// ForwardedTo lists the broker peers the publication was sent on to.
	ForwardedTo []string `json:"forwarded_to,omitempty"`
	// DeliveredTo lists the client peers that received it here.
	DeliveredTo []string `json:"delivered_to,omitempty"`
	// FilteredFor lists client peers suppressed by edge filtering (false
	// positives of imperfect merging).
	FilteredFor []string `json:"filtered_for,omitempty"`
	// RecvUnixNano is the recording broker's wall clock at match time.
	RecvUnixNano int64 `json:"recv_unix_nano"`
}

// Sink receives trace events; the broker calls Record once per traced
// publication, outside its routing lock. A nil-able interface keeps the
// broker decoupled from the ring.
type Sink interface {
	Record(Event)
}

// Ring is a bounded in-memory event store: the newest events overwrite the
// oldest once capacity is reached. Its buffer grows with the events it
// holds, so a ring nothing is recorded into costs nothing. All methods are
// safe for concurrent use.
type Ring struct {
	mu       sync.Mutex
	capacity int
	buf      []Event
	next     int // once full, the index of the slot the next event lands in
	total    int64
}

// NewRing creates a ring retaining up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	return &Ring{capacity: max(capacity, 1)}
}

// Record stores one event, evicting the oldest when full.
func (r *Ring) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next = (r.next + 1) % r.capacity
}

// Snapshot returns the retained events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == r.capacity {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// ByID returns the retained events for one trace ID, oldest-first.
func (r *Ring) ByID(id string) []Event {
	var out []Event
	for _, ev := range r.Snapshot() {
		if ev.TraceID == id {
			out = append(out, ev)
		}
	}
	return out
}

// Total returns how many events were ever recorded (including evicted).
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// NewID returns a fresh random trace ID (16 hex chars).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable; trace IDs only need
		// uniqueness, so degrade to a constant rather than crash tracing.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
