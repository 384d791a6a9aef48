package trace

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestRingLazy pins the ring's buffer to what it holds: an unused
// NewRing(1024) allocates under 1 KB, where a buffer sized up front costs
// 1,024 events, and a ring filled well past its capacity still keeps the
// newest events oldest-first.
func TestRingLazy(t *testing.T) {
	const n = 100
	rings := make([]*Ring, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rings {
		rings[i] = NewRing(1024)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 1024 {
		t.Errorf("an unused NewRing(1024) allocates %d B, want under 1 KB", per)
	}
	r := rings[0]
	for i := 0; i < 3000; i++ {
		r.Record(Event{TraceID: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 1024 || r.Total() != 3000 {
		t.Fatalf("retained %d of %d events, want 1024 of 3000", len(got), r.Total())
	}
	for i, ev := range got {
		if want := fmt.Sprintf("t%d", 3000-1024+i); ev.TraceID != want {
			t.Fatalf("event[%d] = %s, want %s", i, ev.TraceID, want)
		}
	}
}

func TestRingBounded(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{TraceID: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	// Oldest-first, newest events win.
	for i, ev := range got {
		if want := fmt.Sprintf("t%d", 6+i); ev.TraceID != want {
			t.Errorf("event[%d] = %s, want %s", i, ev.TraceID, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{TraceID: "a"})
	r.Record(Event{TraceID: "b"})
	got := r.Snapshot()
	if len(got) != 2 || got[0].TraceID != "a" || got[1].TraceID != "b" {
		t.Errorf("Snapshot = %v", got)
	}
}

func TestRingByID(t *testing.T) {
	r := NewRing(16)
	r.Record(Event{TraceID: "x", Broker: "b1"})
	r.Record(Event{TraceID: "y", Broker: "b1"})
	r.Record(Event{TraceID: "x", Broker: "b2"})
	got := r.ByID("x")
	if len(got) != 2 || got[0].Broker != "b1" || got[1].Broker != "b2" {
		t.Errorf("ByID(x) = %v", got)
	}
	if len(r.ByID("z")) != 0 {
		t.Error("ByID of unknown trace must be empty")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Record(Event{TraceID: fmt.Sprintf("g%d", i)})
				if j%10 == 0 {
					r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Errorf("Total = %d, want 4000", r.Total())
	}
	if len(r.Snapshot()) != 32 {
		t.Errorf("retained %d, want 32", len(r.Snapshot()))
	}
}

func TestNewID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Error("consecutive IDs must differ")
	}
}
