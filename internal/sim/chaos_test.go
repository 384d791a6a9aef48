package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/dtd"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// TestChaosEquivalence is the self-healing safety property: a broker overlay
// subjected to a seeded schedule of link partitions and broker crash/restart
// cycles — frames destroyed, routing state wiped — must, once every fault
// has healed, hold exactly the routing tables and deliver exactly the
// publication set of a fault-free oracle run of the same workload. Recovery
// is the resync protocol (broker.ResyncFor anti-entropy on heal/restart)
// plus client replay of recorded control messages; this test pins that the
// combination converges, for every strategy and many seeds.
//
// The bytes subtest charges every frame the bytes its link's encoder writes
// (Bandwidth > 0) and also detaches and reattaches the subscribers, so the
// per-link encoder resets on heal, restart and reattach run under faults.
func TestChaosEquivalence(t *testing.T) {
	t.Run("latency", func(t *testing.T) { chaosEquivalence(t, 0) })
	t.Run("bytes", func(t *testing.T) { chaosEquivalence(t, 1e6, "sub0", "sub1", "sub2", "sub3") })
}

// chaosEquivalence runs the seeded plans at the given link bandwidth (0 for
// none); detach names clients the plans may also detach and reattach.
func chaosEquivalence(t *testing.T, bandwidth float64, detach ...string) {
	chaosDTD := dtd.MustParse(`
<!ELEMENT root (sec+)>
<!ELEMENT sec (head?, (par | sec | list)*)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT par (#PCDATA | ref)*>
<!ELEMENT ref (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA | par)*>
`)
	// Every strategy must deliver the oracle's publication set after heal.
	// Routing tables are additionally compared entry-for-entry where the
	// strategy propagates them order-independently; covering quenches
	// forwarding based on what was *already* forwarded in a direction, so
	// fault-induced reordering legitimately yields different (equivalent)
	// tables — for those, delivery equivalence is the whole property.
	strategies := []struct {
		cfg           broker.Config
		compareTables bool
	}{
		{broker.Config{}, true},
		{broker.Config{UseAdvertisements: true}, true},
		{broker.Config{UseCovering: true}, false},
		{broker.Config{UseAdvertisements: true, UseCovering: true}, false},
	}
	trials := 6
	plansPerTrial := 3
	if testing.Short() {
		trials, plansPerTrial = 2, 2
	}

	var totalDrops, detaches int64
	for trial := 0; trial < trials; trial++ {
		ops, docs := chaosWorkload(chaosDTD, int64(trial))
		for si, s := range strategies {
			oracle := runChaosWorkload(t, s.cfg, bandwidth, ops, docs, nil)
			for ps := 0; ps < plansPerTrial; ps++ {
				seed := int64(1000*trial + 10*si + ps)
				plan := chaosPlan(seed, detach...)
				for _, e := range plan.Events {
					if e.Kind == faultinject.KindCrash && strings.HasPrefix(e.A, "sub") {
						detaches++
					}
				}
				got := runChaosWorkload(t, s.cfg, bandwidth, ops, docs, plan)
				totalDrops += got.drops
				if got.deliveries != oracle.deliveries {
					t.Fatalf("trial %d strategy %d: delivered sets diverge after heal\n%s\noracle:\n%s\nchaos:\n%s\noracle tables:\n%s\nchaos tables:\n%s",
						trial, si, plan, oracle.deliveries, got.deliveries, oracle.tables, got.tables)
				}
				if s.compareTables && got.tables != oracle.tables {
					t.Fatalf("trial %d strategy %d: routing tables diverge after heal\n%s\noracle:\n%s\nchaos:\n%s",
						trial, si, plan, oracle.tables, got.tables)
				}
			}
		}
	}
	// The property must not hold vacuously: the schedules have to have
	// actually destroyed frames somewhere across the suite.
	if totalDrops == 0 {
		t.Fatal("no frames were dropped by any fault plan — the chaos schedules exercised nothing")
	}
	if len(detach) > 0 && detaches == 0 {
		t.Fatal("no fault plan detached a client")
	}
}

// chaosPlan builds the fault schedule for one run: partitions over the
// 7-broker tree's links plus crash/restart of any broker, and detach and
// reattach of the named clients.
func chaosPlan(seed int64, clients ...string) *faultinject.Plan {
	brokers := make([]string, 0, 7+len(clients))
	for i := 1; i <= 7; i++ {
		brokers = append(brokers, fmt.Sprintf("b%d", i))
	}
	brokers = append(brokers, clients...)
	p := faultinject.New(seed, faultinject.Options{
		Links: [][2]string{
			{"b1", "b2"}, {"b1", "b3"}, {"b2", "b4"}, {"b2", "b5"}, {"b3", "b6"}, {"b3", "b7"},
		},
		Brokers: brokers,
		Faults:  5,
		Horizon: 100 * time.Millisecond,
		MinDown: 4 * time.Millisecond,
		MaxDown: 20 * time.Millisecond,
	})
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

type chaosOp struct {
	sub   int
	unsub bool
	xpe   *xpath.XPE
}

func chaosWorkload(d *dtd.DTD, seed int64) ([]chaosOp, []*xmldoc.Document) {
	r := rand.New(rand.NewSource(seed))
	xg := gen.NewXPathGenerator(d, 0.3, 0.2, seed)
	xg.MinLen = 1
	var ops, live []chaosOp
	for i := 0; i < 30; i++ {
		if len(live) > 4 && r.Intn(5) == 0 {
			j := r.Intn(len(live))
			ops = append(ops, chaosOp{sub: live[j].sub, unsub: true, xpe: live[j].xpe})
			live = append(live[:j], live[j+1:]...)
			continue
		}
		o := chaosOp{sub: r.Intn(4), xpe: xg.Generate()}
		ops = append(ops, o)
		live = append(live, o)
	}
	dg := gen.NewDocGenerator(d, seed)
	dg.AvgRepeat = 1.5
	docs := make([]*xmldoc.Document, 5)
	for i := range docs {
		docs[i] = dg.Generate()
	}
	return ops, docs
}

type chaosResult struct {
	deliveries string
	tables     string
	drops      int64
}

// runChaosWorkload drives one overlay through the workload — with the fault
// plan active during the control phase when plan is non-nil — then holds the
// clock past the plan horizon so every fault heals and resync completes,
// and finally publishes. Publications flow through the healed overlay only;
// what chaos must not corrupt is the control state they are routed by.
func runChaosWorkload(t *testing.T, cfg broker.Config, bandwidth float64, ops []chaosOp, docs []*xmldoc.Document, plan *faultinject.Plan) chaosResult {
	t.Helper()
	net := NewNetwork(1)
	net.Bandwidth = bandwidth
	leaves := BuildCompleteBinaryTree(net, 3, ConfigTemplate(cfg))
	pub := net.AddClient("pub", "b2")
	if cfg.UseAdvertisements {
		advs, err := advert.Generate(dtd.MustParse(`
<!ELEMENT root (sec+)>
<!ELEMENT sec (head?, (par | sec | list)*)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT par (#PCDATA | ref)*>
<!ELEMENT ref (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item (#PCDATA | par)*>
`))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range advs {
			pub.Send(&broker.Message{Type: broker.MsgAdvertise, AdvID: fmt.Sprintf("a%d", i), Adv: a})
		}
		net.Run()
	}
	subs := make([]*Client, 4)
	for i := range subs {
		subs[i] = net.AddClient(fmt.Sprintf("sub%d", i), leaves[i%len(leaves)])
	}
	horizon := 100 * time.Millisecond
	if plan != nil {
		net.InjectPlan(plan)
		horizon = plan.Horizon
	}
	// Control phase: one op every 3ms of virtual time, so the fault windows
	// overlap live subscription traffic.
	for _, o := range ops {
		typ := broker.MsgSubscribe
		if o.unsub {
			typ = broker.MsgUnsubscribe
		}
		subs[o.sub].Send(&broker.Message{Type: typ, XPE: o.xpe})
		net.RunFor(3 * time.Millisecond)
	}
	// Heal phase: run past the plan horizon (every fault closes strictly
	// before it) and drain the recovery traffic.
	net.RunFor(horizon)
	net.Run()

	// Publish phase over the healed overlay.
	for i, doc := range docs {
		for _, p := range xmldoc.Extract(doc, uint64(i)) {
			pub.Send(&broker.Message{Type: broker.MsgPublish, Pub: p})
		}
	}
	net.Run()

	var lines []string
	for i, s := range subs {
		for _, d := range s.Deliveries {
			lines = append(lines, fmt.Sprintf("sub%d<-%s", i, d.Pub))
		}
	}
	sort.Strings(lines)
	return chaosResult{
		deliveries: strings.Join(lines, "\n"),
		tables:     renderTables(net),
		drops:      net.FaultDrops(),
	}
}

// renderTables snapshots the convergence-relevant routing state of every
// broker: each subscription's last-hop set and each advertisement's pattern
// and last hop. Transient bookkeeping (forwarding marks, covering-tree
// shape) is deliberately excluded — it may differ with message order while
// routing exactly alike.
func renderTables(net *Network) string {
	ids := make([]string, 0, len(net.Brokers()))
	for id := range net.Brokers() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		routes := net.Broker(id).Routes()
		var lines []string
		for _, sr := range routes.Subscriptions {
			if len(sr.LastHops) > 0 {
				lines = append(lines, fmt.Sprintf("  sub %s <- [%s]", sr.XPE, strings.Join(sr.LastHops, " ")))
			}
		}
		advSeen := make(map[string]bool)
		for _, ar := range routes.Advertisements {
			line := fmt.Sprintf("  adv %s <- %s", ar.Expr, ar.LastHop)
			if !advSeen[line] {
				advSeen[line] = true
				lines = append(lines, line)
			}
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "%s:\n%s\n", id, strings.Join(lines, "\n"))
	}
	return b.String()
}
