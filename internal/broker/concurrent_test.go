package broker

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// recorder collects emitted messages; the broker may call send from many
// publishing goroutines at once, so it locks.
type recorder struct {
	mu   sync.Mutex
	msgs map[string][]*Message
}

func newRecorder() *recorder { return &recorder{msgs: make(map[string][]*Message)} }

func (r *recorder) send(to string, m *Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs[to] = append(r.msgs[to], m)
}

// delivered returns the DocIDs of publications delivered to a peer.
func (r *recorder) delivered(to string) map[uint64]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]int)
	for _, m := range r.msgs[to] {
		if m.Type == MsgPublish {
			out[m.Pub.DocID]++
		}
	}
	return out
}

// stressWorkload is the shared fixture of the concurrent-vs-sequential runs:
// a stable client subscription plus a set of publications, some matching.
func stressWorkload() (stable *xpath.XPE, pubs []xmldoc.Publication) {
	stable = xpath.MustParse("/stock//price")
	paths := [][]string{
		{"stock", "quote", "price"},
		{"stock", "price"},
		{"stock", "quote", "volume"},
		{"weather", "report"},
		{"stock", "index", "price"},
		{"stock"},
	}
	for i := 0; i < 600; i++ {
		p := paths[i%len(paths)]
		pubs = append(pubs, xmldoc.Publication{DocID: uint64(i + 1), PathID: 0, Path: p})
	}
	return stable, pubs
}

// runSequential plays the whole workload through a broker one message at a
// time and returns the delivery multiset of the stable client.
func runSequential(stable *xpath.XPE, pubs []xmldoc.Publication) map[uint64]int {
	rec := newRecorder()
	b := New(Config{ID: "b1", UseCovering: true}, rec.send)
	b.AddClient("stable")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: stable}, "stable")
	for i := range pubs {
		b.HandleMessage(&Message{Type: MsgPublish, Pub: pubs[i]}, "producer")
	}
	return rec.delivered("stable")
}

// TestConcurrentPublishMatchesSequential is the broker-level half of the
// delivery-equivalence stress test: many goroutines publish through one
// broker while other goroutines churn unrelated subscriptions, and the
// stable client must receive exactly the publication set of a sequential
// run — each matching publication once, nothing else. Run with -race.
func TestConcurrentPublishMatchesSequential(t *testing.T) {
	stable, pubs := stressWorkload()
	want := runSequential(stable, pubs)

	rec := newRecorder()
	b := New(Config{ID: "b1", UseCovering: true}, rec.send)
	b.AddClient("stable")
	b.AddClient("churn")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: stable}, "stable")

	const publishers = 8
	// Subscription churn: the control plane runs concurrently with the
	// publish data plane. The churned expressions do not overlap the
	// publications' paths, so they cannot change the stable client's set.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			x := xpath.MustParse(fmt.Sprintf("/churn/e%d", i%17))
			b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x}, "churn")
			b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x}, "churn")
		}
	}()
	var pub sync.WaitGroup
	for w := 0; w < publishers; w++ {
		pub.Add(1)
		go func(w int) {
			defer pub.Done()
			for i := w; i < len(pubs); i += publishers {
				b.HandleMessage(&Message{Type: MsgPublish, Pub: pubs[i]}, "producer")
			}
		}(w)
	}
	pub.Wait()
	close(stop)
	churn.Wait()

	got := rec.delivered("stable")
	if len(got) != len(want) {
		t.Fatalf("delivered %d distinct publications, want %d", len(got), len(want))
	}
	for id, n := range want {
		if got[id] != n {
			t.Errorf("publication doc%d delivered %d times, want %d", id, got[id], n)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("unexpected delivery doc%d", id)
		}
	}
}

// TestStatsSnapshotDuringPublish exercises the lock-free Stats path while
// publications run, a combination the map-based counters used to race on.
func TestStatsSnapshotDuringPublish(t *testing.T) {
	stable, pubs := stressWorkload()
	rec := newRecorder()
	b := New(Config{ID: "b1"}, rec.send)
	b.AddClient("stable")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: stable}, "stable")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pubs); i += 4 {
				b.HandleMessage(&Message{Type: MsgPublish, Pub: pubs[i]}, "producer")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			st := b.Stats()
			if st.Deliveries < 0 {
				t.Error("negative delivery counter")
			}
		}
	}()
	wg.Wait()
	st := b.Stats()
	if st.MsgsIn[MsgPublish] != int64(len(pubs)) {
		t.Errorf("MsgsIn[publish] = %d, want %d", st.MsgsIn[MsgPublish], len(pubs))
	}
}

// TestConcurrentPublishAcrossDestinationChurn publishes from many
// goroutines through a broker with more than 64 destinations while clients
// join and leave, so destination ids are assigned and every snapshot's
// name ranks are rebuilt under the publishers' feet. The stable client must
// still receive exactly the sequential run's publications, every
// publication must reach its destinations in name order, and nothing may
// reach a client whose subscriptions it does not match. Run with -race.
func TestConcurrentPublishAcrossDestinationChurn(t *testing.T) {
	stable, pubs := stressWorkload()
	want := runSequential(stable, pubs)

	var mu sync.Mutex
	order := map[uint64][]string{} // per publication, its destinations in emission order
	var stray []string
	b := New(Config{ID: "b1", UseCovering: true}, func(to string, m *Message) {
		if m.Type != MsgPublish {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		order[m.Pub.DocID] = append(order[m.Pub.DocID], to)
		if len(m.Pub.Path) == 0 || m.Pub.Path[0] != "stock" {
			stray = append(stray, fmt.Sprintf("doc%d to %s", m.Pub.DocID, to))
		}
	})
	b.AddClient("stable")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: stable}, "stable")
	broad := xpath.MustParse("/stock")
	for i := 0; i < 70; i++ {
		name := fmt.Sprintf("m%02d", i)
		b.AddClient(name)
		b.HandleMessage(&Message{Type: MsgSubscribe, XPE: broad}, name)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			if i >= 20 { // at least 20 joins, however fast the publishers
				select {
				case <-stop:
					return
				default:
				}
			}
			// A new client joins under a name that sorts first, so every
			// existing destination's rank moves; then it leaves.
			name := fmt.Sprintf("a%04d", i)
			b.AddClient(name)
			b.HandleMessage(&Message{Type: MsgSubscribe, XPE: stable}, name)
			b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: stable}, name)
		}
	}()
	const publishers = 8
	var pub sync.WaitGroup
	for w := 0; w < publishers; w++ {
		pub.Add(1)
		go func(w int) {
			defer pub.Done()
			for i := w; i < len(pubs); i += publishers {
				b.HandleMessage(&Message{Type: MsgPublish, Pub: pubs[i]}, "producer")
			}
		}(w)
	}
	pub.Wait()
	close(stop)
	churn.Wait()

	got := map[uint64]int{}
	for id, dests := range order {
		if !sort.StringsAreSorted(dests) {
			t.Errorf("doc%d emitted out of name order: %v", id, dests)
		}
		for _, to := range dests {
			if to == "stable" {
				got[id]++
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stable client received %v, sequential run %v", got, want)
	}
	if len(stray) > 0 {
		t.Errorf("publications reached clients they do not match: %v", stray)
	}
}
