package slowlog

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestRingEviction(t *testing.T) {
	l := New(time.Millisecond, 3)
	for i := 0; i < 5; i++ {
		l.Record(Entry{Broker: "b1", TotalNanos: int64(i)})
	}
	if got := l.Total(); got != 5 {
		t.Errorf("Total = %d, want 5 (evicted entries still counted)", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot retained %d entries, want 3", len(snap))
	}
	// Oldest-first: entries 2, 3, 4 survive.
	for i, e := range snap {
		if e.TotalNanos != int64(i+2) {
			t.Errorf("snap[%d].TotalNanos = %d, want %d", i, e.TotalNanos, i+2)
		}
	}
}

// TestRecorderLazy pins the recorder's buffer to what it holds: an unused
// New(_, 256) allocates under 1 KB, and one filled past its capacity keeps
// the newest entries oldest-first.
func TestRecorderLazy(t *testing.T) {
	const n = 100
	logs := make([]*Log, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range logs {
		logs[i] = New(time.Millisecond, 256)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("an unused New(_, 256) allocates %d B, want under 1 KB", per)
	}
	l := logs[0]
	for i := 0; i < 700; i++ {
		l.Record(Entry{TotalNanos: int64(i)})
	}
	snap := l.Snapshot()
	if len(snap) != 256 || l.Total() != 700 {
		t.Fatalf("retained %d of %d entries, want 256 of 700", len(snap), l.Total())
	}
	for i, e := range snap {
		if want := int64(700 - 256 + i); e.TotalNanos != want {
			t.Fatalf("snap[%d].TotalNanos = %d, want %d", i, e.TotalNanos, want)
		}
	}
}

func TestLoggerCallback(t *testing.T) {
	l := New(time.Millisecond, 4)
	var lines []string
	l.Logger = func(e Entry) { lines = append(lines, e.String()) }
	l.Record(Entry{
		Broker:     "b2",
		From:       "b1",
		TraceID:    "t-42",
		TotalNanos: int64(70 * time.Millisecond),
		Stages: []trace.StageDur{
			{Stage: trace.StageMatch, Nanos: int64(60 * time.Millisecond)},
			{Stage: trace.StageEnqueue, Nanos: int64(10 * time.Millisecond)},
		},
		Epoch:        7,
		Destinations: []string{"b3", "sub"},
		QueueDepths:  map[string]int{"b3": 12},
	})
	if len(lines) != 1 {
		t.Fatalf("Logger invoked %d times, want 1", len(lines))
	}
	for _, want := range []string{
		"broker=b2", "total=70ms", "from=b1", "match=60ms", "enqueue=10ms",
		"epoch=7", "dests=2", "trace=t-42", "max_queue=b3:12",
	} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("log line missing %q: %s", want, lines[0])
		}
	}
}

func TestCapacityFloor(t *testing.T) {
	l := New(time.Millisecond, 0)
	l.Record(Entry{Broker: "a"})
	l.Record(Entry{Broker: "b"})
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0].Broker != "b" {
		t.Errorf("capacity-0 log = %+v, want just the newest entry", snap)
	}
}

// TestConcurrentRecordSnapshot hammers Record against Snapshot/Total; run
// under -race in CI.
func TestConcurrentRecordSnapshot(t *testing.T) {
	l := New(time.Millisecond, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Record(Entry{Broker: fmt.Sprintf("b%d", g), TotalNanos: int64(i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if snap := l.Snapshot(); len(snap) > 8 {
				t.Errorf("snapshot over capacity: %d", len(snap))
			}
			l.Total()
		}
	}()
	wg.Wait()
	if got := l.Total(); got != 800 {
		t.Errorf("Total = %d, want 800", got)
	}
}
