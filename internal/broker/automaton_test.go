package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/advert"
	"repro/internal/dtd"
	"repro/internal/merge"
	"repro/internal/pmatch"
	"repro/internal/subtree"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// pub builds a test publication with per-element attributes.
func pub(path []string, attrs []map[string]string, id int) xmldoc.Publication {
	return xmldoc.Publication{DocID: uint64(id), Path: path, Attrs: attrs}
}

// pubSink captures the publications a broker emits, safe for concurrent
// sends. lines keeps every emission, with its body — a document's bytes or
// a path — for comparing brokers byte for byte; dests collects the
// destinations of the publication in flight for treeWalkRoute, durable
// deliveries under their virtual-client key.
type pubSink struct {
	mu    sync.Mutex
	lines []string
	dests []string
}

func (s *pubSink) send(to string, m *Message) {
	if m.Type != MsgPublish {
		return
	}
	body := m.Pub.String()
	if len(m.Raw) > 0 {
		body = string(m.Raw)
	}
	line, dest := to+"<-"+body, to
	if m.Durable != "" {
		line += fmt.Sprintf("#%s:%d", m.Durable, m.Seq)
		dest = durKey(m.Durable)
	}
	s.mu.Lock()
	s.lines = append(s.lines, line)
	s.dests = append(s.dests, dest)
	s.mu.Unlock()
}

// sorted returns every line recorded so far, sorted.
func (s *pubSink) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.lines...)
	sort.Strings(out)
	return out
}

// takeDests returns the destinations recorded since the last call, in
// emission order.
func (s *pubSink) takeDests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.dests
	s.dests = nil
	return out
}

// randomWorkloadXPE mirrors the pmatch property generator but over a
// broker-sized alphabet, including predicates.
func randomWorkloadXPE(r *rand.Rand) *xpath.XPE {
	alpha := []string{"a", "b", "c", "d"}
	n := 1 + r.Intn(4)
	steps := make([]xpath.Step, n)
	for i := range steps {
		axis := xpath.Child
		if i > 0 && r.Intn(3) == 0 {
			axis = xpath.Descendant
		}
		name := alpha[r.Intn(len(alpha))]
		if r.Intn(6) == 0 {
			name = xpath.Wildcard
		}
		var preds string
		if r.Intn(7) == 0 {
			preds = xpath.EncodePreds([]xpath.Pred{{Attr: "k", Value: alpha[r.Intn(2)]}})
		}
		steps[i] = xpath.Step{Axis: axis, Name: name, Preds: preds}
	}
	return xpath.New(r.Intn(4) == 0, steps...)
}

// memStore is an in-memory DurableStore: enough for a durable subscriber
// to register and receive sequenced deliveries.
type memStore struct{}

func (memStore) Append(string, uint64, *Message) error { return nil }
func (memStore) Ack(string, uint64) error              { return nil }
func (memStore) SaveSub(string, []string) error        { return nil }
func (memStore) Replay(string, uint64, uint64, func(uint64, *Message) error) error {
	return nil
}
func (memStore) Recover() []DurableState { return nil }

// routingScenario is one control-plane shape the equivalence test drives.
type routingScenario struct {
	name    string // subtest prefix; "" is the plain covering broker
	cfg     Config
	durable bool // a durable subscriber registers expressions
	resync  bool // neighbour n1 resyncs random claims; ResyncFor runs
	// clients registers this many more clients, each with a broad and a
	// random subscription, so publications reach more than 64
	// destinations; between publications one client withdraws all its
	// subscriptions or a new one joins, moving every later name's rank.
	clients int
}

func routingScenarios(t *testing.T) []routingScenario {
	// Over the workload alphabet: the siblings /a/b, /a/c, /a/d merge
	// perfectly into /a/*, two of them imperfectly.
	d := dtd.MustParse(`
<!ELEMENT a (b | c | d)>
<!ELEMENT b (c | d)>
<!ELEMENT c (d)>
<!ELEMENT d (#PCDATA)>
`)
	advs, err := advert.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	est := merge.NewDegreeEstimator(advs, 10, 100)
	return []routingScenario{
		{name: ""},
		{name: "merge-perfect/", cfg: Config{Merging: MergePerfect, Estimator: est, MergeEvery: 4}},
		{name: "merge-imperfect/", cfg: Config{Merging: MergeImperfect, ImperfectDegree: 0.5, Estimator: est, MergeEvery: 3}},
		{name: "durable/", cfg: Config{Durable: memStore{}}, durable: true},
		{name: "resync/", resync: true},
		{name: "many-clients/", clients: 70},
	}
}

// checkRoutesLikeTreeWalk drives a broker through random control sequences
// under every routing scenario and checks each publication as it is routed:
// its destinations and its delivery and false-positive counts must be
// exactly what treeWalkRoute computes over the master tables at that
// moment, and it must reach them in name order. After each run the live
// table must have the Stats of a fresh build over the master tables. publish builds the messages of one publish
// step from r. The scenarios cover every path that edits the matching table
// or the destination ids: plain subscribe/unsubscribe, merge passes (which
// re-seed it), a durable subscriber (a virtual client), resync claims (which
// subscribe and withdraw in bulk), and clients leaving and joining past 64
// destinations. It returns each scenario's counters summed over the seeds,
// for the callers' vacuity guards.
func checkRoutesLikeTreeWalk(t *testing.T, publish func(r *rand.Rand) []*Message) map[string]Stats {
	totals := map[string]Stats{}
	for _, sc := range routingScenarios(t) {
		for seed := int64(1); seed <= 5; seed++ {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%sseed=%d", sc.name, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				rec := &pubSink{}
				cfg := sc.cfg
				cfg.ID = "b1"
				cfg.UseCovering = true
				b := New(cfg, rec.send)
				b.AddNeighbor("n1")
				b.AddNeighbor("n2")
				b.AddClient("c1")
				b.AddClient("c2")
				peers := []string{"n1", "n2", "c1", "c2"}
				var subs []*xpath.XPE
				// Extra clients and their subscriptions (many-clients).
				broad := []string{"/a", "/*", "//b", "//c", "/a//d"}
				var extra []string
				extraSubs := map[string][]*xpath.XPE{}
				join := func(name string) {
					b.AddClient(name)
					extra = append(extra, name)
					for _, x := range []*xpath.XPE{xpath.MustParse(broad[len(extra)%len(broad)]), randomWorkloadXPE(r)} {
						extraSubs[name] = append(extraSubs[name], x)
						b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x}, name)
					}
				}
				for i := 0; i < sc.clients; i++ {
					join(fmt.Sprintf("m%02d", i))
				}
				wide := 0 // publications reaching more than 64 destinations
				for i := 0; i < 300; i++ {
					switch op := r.Intn(20); {
					case op < 8: // subscribe
						x := randomWorkloadXPE(r)
						subs = append(subs, x)
						b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x}, peers[r.Intn(len(peers))])
					case op < 10 && len(subs) > 0: // unsubscribe
						b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: subs[r.Intn(len(subs))]}, peers[r.Intn(len(peers))])
					case op == 10 && sc.durable:
						b.HandleMessage(&Message{Type: MsgSubscribeDurable, Durable: "d1", XPE: randomWorkloadXPE(r)}, "c1")
					case op == 10 && sc.resync:
						claim := &ResyncState{}
						for _, x := range subs {
							if r.Intn(2) == 0 {
								claim.Subs = append(claim.Subs, x)
							}
						}
						b.HandleMessage(&Message{Type: MsgResync, Resync: claim}, "n1")
						b.ResyncFor("n2")
					case op == 11 && len(extra) > 0 && r.Intn(2) == 0:
						// A client leaves: it withdraws everything.
						k := r.Intn(len(extra))
						for _, x := range extraSubs[extra[k]] {
							b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x}, extra[k])
						}
						delete(extraSubs, extra[k])
						extra = append(extra[:k], extra[k+1:]...)
					case op == 11 && sc.clients > 0:
						// A new client joins under a name that sorts
						// before most others.
						join(fmt.Sprintf("j%03d", i))
					default:
						for _, m := range publish(r) {
							want := treeWalkRoute(t, b, m, "producer")
							before := b.Stats()
							rec.takeDests()
							b.HandleMessage(m, "producer")
							after := b.Stats()
							got := rec.takeDests()
							if !sort.StringsAreSorted(got) {
								t.Fatalf("step %d: emitted out of name order: %v", i, got)
							}
							if !reflect.DeepEqual(got, want.dests) {
								t.Fatalf("step %d: routed to %v, tree walk %v", i, got, want.dests)
							}
							if len(got) > 64 {
								wide++
							}
							if d, fp := after.Deliveries-before.Deliveries, after.FalsePositives-before.FalsePositives; d != want.deliveries || fp != want.falsePositives {
								t.Fatalf("step %d: %d deliveries and %d false positives, tree walk %d and %d",
									i, d, fp, want.deliveries, want.falsePositives)
							}
						}
					}
				}
				if got, want := b.NFAStats(), freshTableStats(b); got != want {
					t.Fatalf("live table %+v, fresh build over the master tables %+v", got, want)
				}
				if st := b.Stats(); st.BadDocuments != 0 {
					t.Fatalf("%d well-formed documents dropped as bad", st.BadDocuments)
				}
				if sc.clients > 0 && wide == 0 {
					t.Fatal("no publication reached more than 64 destinations: scenario is vacuous")
				}
				got, stats := rec.sorted(), b.Stats()
				if sc.durable && !strings.Contains(strings.Join(got, " "), "#d1:") {
					t.Fatal("the durable subscriber received nothing: scenario is vacuous")
				}
				sum := totals[sc.name]
				sum.Deliveries += stats.Deliveries
				sum.FalsePositives += stats.FalsePositives
				sum.Mergers += stats.Mergers
				totals[sc.name] = sum
			})
		}
	}
	return totals
}

// TestAutomatonRoutesLikeTreeWalk holds path publications to the tree-walk
// oracle under every routing scenario (checkRoutesLikeTreeWalk). This is
// the broker-level equivalence contract on top of pmatch's own property
// tests.
func TestAutomatonRoutesLikeTreeWalk(t *testing.T) {
	totals := checkRoutesLikeTreeWalk(t, func(r *rand.Rand) []*Message {
		alpha := []string{"a", "b", "c", "d", "zz"}
		n := 1 + r.Intn(5)
		path := make([]string, n)
		attrs := make([]map[string]string, n)
		for j := range path {
			path[j] = alpha[r.Intn(len(alpha))]
			if r.Intn(3) == 0 {
				attrs[j] = map[string]string{"k": alpha[r.Intn(2)]}
			}
		}
		return []*Message{{Type: MsgPublish, Pub: pub(path, attrs, r.Int())}}
	})
	for _, sc := range []string{"merge-perfect/", "merge-imperfect/"} {
		if totals[sc].Mergers == 0 {
			t.Errorf("%s: no merger applied in any seed: scenario is vacuous", sc)
		}
	}
}

// freshTableStats compiles the broker's master tables in one shot for
// comparison with the incrementally maintained table: a PRT node with last
// hops gets an entry when it is top-level or adds a destination to its
// covering parent — a last hop the parent lacks, or a client whose own
// subscription it is but not the parent — and a client subscription gets a
// filter entry when no PRT node holding it reaches the client (a merger
// absorbed it).
func freshTableStats(b *Broker) pmatch.Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	owns := func(hop string, n *subtree.Node) bool {
		_, ok := b.clientSubs[hop][n.XPE.Key()]
		return ok
	}
	sb := pmatch.NewBuilder()
	b.prt.Walk(func(n *subtree.Node) {
		st := stateOf(n)
		if st == nil || len(st.lastHops) == 0 {
			return
		}
		p := n.Parent()
		adds := p == nil || stateOf(p) == nil
		for _, hop := range st.lastHops {
			adds = adds || !stateOf(p).lastHops.has(hop) || owns(hop, n) && !owns(hop, p)
		}
		if adds {
			sb.Add(n.XPE, nil)
		}
	})
	for client, subs := range b.clientSubs {
		for _, f := range subs {
			n := b.prt.Lookup(f.xpe)
			if n == nil || stateOf(n) == nil || !stateOf(n).lastHops.has(client) {
				sb.Add(f.xpe, nil)
			}
		}
	}
	return sb.Build().Stats()
}

// TestAutomatonRebuildTracksControlPlane pins the table's lifecycle: the
// automaton is empty on an empty broker, grows with subscriptions, shrinks
// on unsubscribe, and does not change on control messages that touch
// neither the PRT nor a client's filters.
func TestAutomatonRebuildTracksControlPlane(t *testing.T) {
	b := New(Config{ID: "b1", UseCovering: true}, func(string, *Message) {})
	if s := b.NFAStats(); s.Entries != 0 {
		t.Fatalf("empty broker: %+v", s)
	}
	b.AddClient("c1")
	x1, x2 := xpath.MustParse("/a/b"), xpath.MustParse("/a//c")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x1}, "c1")
	// One PRT node, which matches the subscription for c1 too: no filter
	// entry.
	if s := b.NFAStats(); s.Entries != 1 {
		t.Fatalf("after one client subscription: %+v", s)
	}
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x2}, "peer")
	if s := b.NFAStats(); s.Entries != 2 {
		t.Fatalf("after peer subscription: %+v", s)
	}
	// A subscription covered by /a/b from the same client adds no
	// destination, so no entry.
	x3 := xpath.MustParse("/a/b/c")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x3}, "c1")
	if s := b.NFAStats(); s.Entries != 2 {
		t.Fatalf("after a covered client subscription: %+v", s)
	}
	before := b.SnapshotEpoch()
	// A duplicate subscription from the same peer changes nothing: no new
	// snapshot, same automaton.
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x2}, "peer")
	if b.SnapshotEpoch() != before {
		t.Fatal("no-op control change must not swap the snapshot")
	}
	b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x2}, "peer")
	if s := b.NFAStats(); s.Entries != 1 {
		t.Fatalf("after unsubscribe: %+v", s)
	}
	// Withdrawing the coverer splices /a/b/c up to the top level, where it
	// needs an entry of its own.
	b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x1}, "c1")
	if s := b.NFAStats(); s.Entries != 1 {
		t.Fatalf("after the coverer's unsubscribe: %+v", s)
	}
	if got, want := b.NFAStats(), freshTableStats(b); got != want {
		t.Fatalf("live table %+v, fresh build over the master tables %+v", got, want)
	}
}

// TestTableStatusEpoch pins the table status line: its epoch is the last
// snapshot epoch that changed the matching table. A subscribe or an
// unsubscribe moves it with the snapshot epoch; an advertisement and a
// bare client registration move only the snapshot epoch.
func TestTableStatusEpoch(t *testing.T) {
	b := New(Config{ID: "b1", UseAdvertisements: true, UseCovering: true}, func(string, *Message) {})
	b.AddNeighbor("n1")
	if st := b.TableStatus(); st != (TableStatus{States: 1}) {
		t.Fatalf("empty broker: %+v", st)
	}

	x := xpath.MustParse("/a/b")
	b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x}, "n1")
	e1 := b.SnapshotEpoch()
	st := b.TableStatus()
	if st.Epoch != e1 || st.Entries != 1 || st.States != 3 || st.LastBuildSeconds <= 0 {
		t.Fatalf("after subscribe: %+v (snapshot epoch %d)", st, e1)
	}

	b.HandleMessage(&Message{Type: MsgAdvertise, AdvID: "ad1", Adv: advert.MustParse("/a/b")}, "n1")
	if e := b.SnapshotEpoch(); e == e1 {
		t.Fatal("an advertisement must move the snapshot epoch")
	}
	if got := b.TableStatus(); got != st {
		t.Fatalf("an advertisement changed the table status: %+v, was %+v", got, st)
	}
	e2 := b.SnapshotEpoch()
	b.AddClient("c1")
	if e := b.SnapshotEpoch(); e == e2 {
		t.Fatal("a client registration must move the snapshot epoch")
	}
	if got := b.TableStatus(); got != st {
		t.Fatalf("a client registration changed the table status: %+v, was %+v", got, st)
	}

	b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x}, "n1")
	e3 := b.SnapshotEpoch()
	if st := b.TableStatus(); st.Epoch != e3 || st.Entries != 0 || st.States != 1 {
		t.Fatalf("after unsubscribe: %+v (snapshot epoch %d)", st, e3)
	}
}
