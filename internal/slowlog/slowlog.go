// Package slowlog is the broker's slow-publication flight recorder: a
// bounded in-memory ring that captures the complete per-stage latency
// breakdown, document shape, routing-snapshot epoch, and send-queue depths
// of any publication whose in-broker time exceeded a configurable
// threshold. The admin endpoint /debug/slow serves the ring as JSON, and an
// optional Logger callback emits each capture as a structured log line the
// moment it happens — so "which broker, which stage was slow" is answerable
// both live and post-mortem without tracing every publication.
//
// Recording is strictly off the hot path: the broker only calls Record for
// publications already measured over the threshold, so a healthy broker
// never pays more than the threshold comparison.
package slowlog

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// Entry is one slow publication capture.
type Entry struct {
	// Broker is the capturing broker's ID.
	Broker string `json:"broker"`
	// From is the peer the publication arrived from ("" for local origins).
	From string `json:"from,omitempty"`
	// TraceID is set when the publication was traced (see package trace).
	TraceID string `json:"trace_id,omitempty"`
	// UnixNano is the broker's wall clock at capture time.
	UnixNano int64 `json:"unix_nano"`
	// TotalNanos is the publication's in-broker time: the sum of the stage
	// durations below, on the monotonic clock.
	TotalNanos int64 `json:"total_nanos"`
	// Stages is the per-stage breakdown (decode, match, filter, enqueue —
	// see trace stage names).
	Stages []trace.StageDur `json:"stages,omitempty"`
	// DocBytes is the raw document size for streaming publications, 0
	// otherwise.
	DocBytes int `json:"doc_bytes,omitempty"`
	// Epoch is the routing-snapshot epoch the publication was matched under.
	Epoch uint64 `json:"epoch,omitempty"`
	// Hops is the length of the carried hop list (traced publications).
	Hops int `json:"hops,omitempty"`
	// Destinations lists the next hops (brokers and clients) the
	// publication was forwarded to.
	Destinations []string `json:"destinations,omitempty"`
	// QueueDepths snapshots the transport's per-peer send-queue depths at
	// capture time — deep queues point at the link, not the matcher.
	QueueDepths map[string]int `json:"queue_depths,omitempty"`
}

// String renders the entry as one key=value log line.
func (e Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "broker=%s total=%s", e.Broker, time.Duration(e.TotalNanos))
	if e.From != "" {
		fmt.Fprintf(&b, " from=%s", e.From)
	}
	for _, s := range e.Stages {
		fmt.Fprintf(&b, " %s=%s", s.Stage, time.Duration(s.Nanos))
	}
	fmt.Fprintf(&b, " epoch=%d dests=%d", e.Epoch, len(e.Destinations))
	if e.DocBytes > 0 {
		fmt.Fprintf(&b, " doc_bytes=%d", e.DocBytes)
	}
	if e.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", e.TraceID)
	}
	if len(e.QueueDepths) > 0 {
		max, maxPeer := 0, ""
		for peer, d := range e.QueueDepths {
			if d > max || (d == max && maxPeer == "") {
				max, maxPeer = d, peer
			}
		}
		fmt.Fprintf(&b, " max_queue=%s:%d", maxPeer, max)
	}
	return b.String()
}

// Log is a bounded slow-publication ring. All methods are safe for
// concurrent use; the zero value is not usable — construct with New.
type Log struct {
	threshold time.Duration

	// Logger, when non-nil, receives every captured entry synchronously
	// from Record — set it before the broker starts. It runs on the publish
	// path of an already-slow publication, so it should stay cheap (a log
	// line).
	Logger func(Entry)

	mu       sync.Mutex
	capacity int
	buf      []Entry // grows with the captures, up to capacity
	next     int     // once full, the index of the slot the next capture lands in
	total    int64
}

// New creates a flight recorder capturing publications slower than
// threshold, retaining up to capacity entries (minimum 1). Its buffer grows
// with the captures, so a recorder that never fires costs nothing.
func New(threshold time.Duration, capacity int) *Log {
	return &Log{threshold: threshold, capacity: max(capacity, 1)}
}

// Threshold returns the capture threshold. The broker compares each
// publication's measured in-broker time against it.
func (l *Log) Threshold() time.Duration { return l.threshold }

// Record stores one capture, evicting the oldest when full, and invokes the
// Logger when set.
func (l *Log) Record(e Entry) {
	l.mu.Lock()
	l.total++
	if len(l.buf) < l.capacity {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % l.capacity
	}
	logger := l.Logger
	l.mu.Unlock()
	if logger != nil {
		logger(e)
	}
}

// Snapshot returns the retained entries oldest-first.
func (l *Log) Snapshot() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, 0, len(l.buf))
	if len(l.buf) == l.capacity {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}

// Total returns how many slow publications were ever captured (including
// entries since evicted from the ring).
func (l *Log) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
