package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/dtd"
	"repro/internal/merge"
	"repro/internal/pmatch"
	"repro/internal/subtree"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/xpath"
)

// lastEvent is a trace sink keeping the newest event.
type lastEvent struct{ ev trace.Event }

func (s *lastEvent) Record(ev trace.Event) { s.ev = ev }

// fullVerdict is what one publication does at a broker: the peers it is
// forwarded to, delivered to and filtered for, each in name order.
type fullVerdict struct {
	forwarded, delivered, filtered []string
}

// fullTableVerdicts routes every path of the pool through a table built
// with the unpruned rule — an entry for every PRT node with a last hop,
// reaching those hops, and a filter entry for every client subscription,
// matching its client — followed by the edge filter.
func fullTableVerdicts(b *Broker, pool []xmlPath, from string) []fullVerdict {
	b.mu.RLock()
	defer b.mu.RUnlock()
	type payload struct {
		hops   []string
		client string
	}
	tb := pmatch.NewBuilder()
	b.prt.Walk(func(n *subtree.Node) {
		if st := stateOf(n); st != nil && len(st.lastHops) > 0 {
			tb.Add(n.XPE, payload{hops: st.lastHops})
		}
	})
	for client, subs := range b.clientSubs {
		for _, f := range subs {
			tb.Add(f.xpe, payload{client: client})
		}
	}
	full := tb.Build()
	out := make([]fullVerdict, len(pool))
	for i, p := range pool {
		hops, matched := map[string]bool{}, map[string]bool{}
		full.Match(symtab.InternPath(p.path), p.attrs, func(data any) {
			pl := data.(payload)
			if pl.client != "" {
				matched[pl.client] = true
			}
			for _, h := range pl.hops {
				hops[h] = true
			}
		})
		names := make([]string, 0, len(hops))
		for h := range hops {
			if h != from {
				names = append(names, h)
			}
		}
		sort.Strings(names)
		var v fullVerdict
		for _, h := range names {
			switch {
			case !b.clients[h]:
				v.forwarded = append(v.forwarded, h)
			case matched[h]:
				v.delivered = append(v.delivered, h)
			default:
				v.filtered = append(v.filtered, h)
			}
		}
		out[i] = v
	}
	return out
}

// xmlPath is one path publication of the property test's pool.
type xmlPath struct {
	path  []string
	attrs []map[string]string
}

// TestPrunedTableRoutesLikeFullTable is the equivalence property of the
// pruned matching table: random scripts of subscribe (fresh expressions
// and expressions already in the PRT, mergers included), unsubscribe,
// durable subscribe and merge passes, over two clients and a neighbour,
// with covering on and imperfect merging at degree 0.1. After every step
// each path of a fixed pool must be forwarded, delivered and filtered
// exactly as a table holding every PRT node and every client filter routes
// it, and the live table must have the Stats of a fresh build under the
// pruning rule.
func TestPrunedTableRoutesLikeFullTable(t *testing.T) {
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

	pr := rand.New(rand.NewSource(99))
	alpha := []string{"a", "b", "c", "d", "zz"}
	pool := make([]xmlPath, 48)
	for i := range pool {
		n := 1 + pr.Intn(5)
		p := xmlPath{path: make([]string, n), attrs: make([]map[string]string, n)}
		for j := range p.path {
			p.path[j] = alpha[pr.Intn(len(alpha))]
			if pr.Intn(3) == 0 {
				p.attrs[j] = map[string]string{"k": alpha[pr.Intn(2)]}
			}
		}
		pool[i] = p
	}

	var mergers, absorbedSteps, filtered, remerged int
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		sink := &lastEvent{}
		b := New(Config{
			ID: "b1", UseCovering: true,
			Merging: MergeImperfect, ImperfectDegree: 0.1, Estimator: est, MergeEvery: 1 << 30,
			Durable: memStore{}, TraceSink: sink,
		}, func(string, *Message) {})
		b.AddNeighbor("n1")
		b.AddClient("c1")
		b.AddClient("c2")
		peers := []string{"n1", "c1", "c2"}
		var subs []*xpath.XPE
		for step := 0; step < 150; step++ {
			var what string
			switch op := r.Intn(10); {
			case op < 4:
				x := randomWorkloadXPE(r)
				subs = append(subs, x)
				peer := peers[r.Intn(len(peers))]
				what = fmt.Sprintf("subscribe %s from %s", x, peer)
				b.HandleMessage(&Message{Type: MsgSubscribe, XPE: x}, peer)
			case op < 5:
				// An expression already in the PRT: a new direction, a
				// client taking a merger's expression, or a repeat.
				var nodes []*subtree.Node
				b.prt.Walk(func(n *subtree.Node) { nodes = append(nodes, n) })
				if len(nodes) == 0 {
					continue
				}
				n := nodes[r.Intn(len(nodes))]
				peer := peers[r.Intn(len(peers))]
				if st := stateOf(n); st != nil && st.merger && peer != "n1" {
					remerged++
				}
				subs = append(subs, n.XPE)
				what = fmt.Sprintf("subscribe PRT node %s from %s", n.XPE, peer)
				b.HandleMessage(&Message{Type: MsgSubscribe, XPE: n.XPE}, peer)
			case op < 7 && len(subs) > 0:
				x, peer := subs[r.Intn(len(subs))], peers[r.Intn(len(peers))]
				what = fmt.Sprintf("unsubscribe %s from %s", x, peer)
				b.HandleMessage(&Message{Type: MsgUnsubscribe, XPE: x}, peer)
			case op < 8:
				x := randomWorkloadXPE(r)
				what = fmt.Sprintf("durable subscribe %s", x)
				b.HandleMessage(&Message{Type: MsgSubscribeDurable, Durable: "d1", XPE: x}, "c1")
			default:
				what = "merge pass"
				b.mu.Lock()
				start := time.Now()
				b.runMergePass()
				b.publishSnapshot(start)
				b.mu.Unlock()
			}

			want := fullTableVerdicts(b, pool, "producer")
			for i, p := range pool {
				b.HandleMessage(&Message{Type: MsgPublish, TraceID: "t", Pub: pub(p.path, p.attrs, i)}, "producer")
				got := fullVerdict{forwarded: sink.ev.ForwardedTo, delivered: sink.ev.DeliveredTo, filtered: sink.ev.FilteredFor}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("seed %d step %d (%s): path %v %v routed %+v, the full table %+v",
						seed, step, what, p.path, p.attrs, got, want[i])
				}
				filtered += len(got.filtered)
			}
			if got, want := b.NFAStats(), freshTableStats(b); got != want {
				t.Fatalf("seed %d step %d (%s): live table %+v, fresh build under the pruning rule %+v",
					seed, step, what, got, want)
			}
			b.mu.RLock()
			held := false
			for _, fs := range b.clientSubs {
				for _, f := range fs {
					held = held || f.entry != (pmatch.Handle{})
				}
			}
			b.mu.RUnlock()
			if held {
				absorbedSteps++
			}
		}
		mergers += int(b.Stats().Mergers)
	}
	t.Logf("%d mergers, %d steps holding a filter entry, %d filtered deliveries, %d client subscriptions of a merger",
		mergers, absorbedSteps, filtered, remerged)
	if mergers == 0 || absorbedSteps == 0 || filtered == 0 || remerged == 0 {
		t.Error("a part of the property went unexercised: the scripts are vacuous")
	}
}
