package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/broker"
	"repro/internal/faultinject"
)

// This file is the simulator's side of the self-healing protocol: it applies
// a faultinject.Plan on the virtual clock — severing links, crashing and
// restarting brokers — and performs on heal exactly what the TCP transport
// performs on reconnect: a control-state resync in both directions
// (broker.ResyncFor) plus a client replay of recorded subscriptions and
// advertisements when an edge broker comes back empty. Chaos equivalence
// tests run a plan to its horizon and then hold the overlay to the routing
// state and delivery set of a fault-free oracle run.

// InjectPlan schedules every event of a fault plan into the virtual event
// queue, offset from the current virtual time (event times are
// plan-relative, so a plan can be injected after setup traffic has already
// advanced the clock). Fault events are ordinary events and are processed
// when the clock reaches them.
func (n *Network) InjectPlan(p *faultinject.Plan) {
	for i := range p.Events {
		ev := p.Events[i]
		n.push(&event{at: n.now + ev.At, fault: &ev})
	}
}

// FaultDrops returns how many frames injected faults have destroyed.
func (n *Network) FaultDrops() int64 { return n.faultDrops }

// Partitioned reports whether the link a-b is currently severed.
func (n *Network) Partitioned(a, b string) bool { return n.partitioned[linkKey(a, b)] }

// Down reports whether a broker is currently crashed.
func (n *Network) Down(id string) bool { return n.down[id] }

// linkKey canonicalises an undirected link name.
func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// applyFault executes one fault transition at the current virtual time.
func (n *Network) applyFault(e *faultinject.Event) {
	switch e.Kind {
	case faultinject.KindPartition:
		n.partitioned[linkKey(e.A, e.B)] = true
	case faultinject.KindHeal:
		delete(n.partitioned, linkKey(e.A, e.B))
		n.reconnect(e.A, e.B)
		// Both ends replay their owed control state, like the transport
		// after a successful reconnect. A still-crashed end resyncs when it
		// restarts instead.
		if !n.down[e.A] && !n.down[e.B] {
			n.invoke(e.A, func(b *broker.Broker) { b.ResyncFor(e.B) })
			n.invoke(e.B, func(b *broker.Broker) { b.ResyncFor(e.A) })
		}
	case faultinject.KindCrash:
		if c := n.clients[e.A]; c != nil {
			c.Detach()
		} else {
			n.down[e.A] = true
		}
	case faultinject.KindRestart:
		if c := n.clients[e.A]; c != nil {
			c.Reattach()
		} else {
			n.restartBroker(e.A)
		}
	default:
		panic(fmt.Sprintf("sim: unknown fault kind %v", e.Kind))
	}
}

// restartBroker replaces a crashed broker with an empty instance and runs
// the recovery protocol: reachable neighbours resync their owed state to it,
// it resyncs its (empty) claim to them — clearing entries they still
// attribute to the dead instance — and its clients replay their recorded
// control messages.
func (n *Network) restartBroker(id string) {
	delete(n.down, id)
	cfg := n.cfgs[id]
	if n.DurableReopen != nil {
		// A real broker process reopens its publication log on boot; the
		// hook hands the restarted instance its recovered store.
		cfg.Durable = n.DurableReopen(id)
		n.cfgs[id] = cfg
	}
	fresh := n.newBrokerInstance(cfg)
	n.brokers[id] = fresh
	n.reconnect(id, "")

	neighbors := make([]string, 0, len(n.adj[id]))
	for nb := range n.adj[id] {
		neighbors = append(neighbors, nb)
	}
	sort.Strings(neighbors)
	for _, nb := range neighbors {
		fresh.AddNeighbor(nb)
	}
	clients := n.clientsOf(id)
	for _, c := range clients {
		fresh.AddClient(c.ID)
	}
	if cfg.Durable != nil {
		// After neighbour registration (recovered subscriptions forward
		// upstream) and before the resync exchange — the order the TCP
		// transport's constructor follows.
		n.invoke(id, func(b *broker.Broker) { b.RecoverDurable() })
	}
	for _, nb := range neighbors {
		if n.down[nb] || n.partitioned[linkKey(id, nb)] {
			continue // that link's own heal/restart will resync it
		}
		n.invoke(nb, func(b *broker.Broker) { b.ResyncFor(id) })
		n.invoke(id, func(b *broker.Broker) { b.ResyncFor(nb) })
	}
	for _, c := range clients {
		c.replay()
	}
}

// Detach severs the client's connection to its edge broker: frames
// addressed to it are lost until Reattach. The broker keeps sequencing and
// logging the client's durable subscription while it is gone.
func (c *Client) Detach() { c.detached = true }

// Reattach restores the client's connection and replays its recorded
// control state, like a real client's reconnect — a recorded durable
// subscription doubles as reattach and triggers gap replay broker-side.
func (c *Client) Reattach() {
	c.detached = false
	c.replaying = false
	c.net.reconnect(c.ID, c.Broker)
	c.replay()
}

// replay re-sends the client's recorded control messages to its edge broker.
func (c *Client) replay() {
	for _, m := range c.Messages() {
		c.net.send(c.ID, c.Broker, m, 0)
	}
}

// Detached reports whether the client's connection is currently severed.
func (c *Client) Detached() bool { return c.detached }

// clientsOf returns the clients attached to a broker, sorted by ID for
// deterministic replay order.
func (n *Network) clientsOf(brokerID string) []*Client {
	var out []*Client
	for _, c := range n.clients {
		if c.Broker == brokerID {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// invoke runs fn against a broker outside a message delivery and flushes
// whatever it emitted into the event queue — the hook resync calls ride on.
func (n *Network) invoke(id string, fn func(*broker.Broker)) {
	b := n.brokers[id]
	if b == nil {
		panic(fmt.Sprintf("sim: invoke on unknown broker %s", id))
	}
	n.outbox = n.outbox[:0]
	fn(b)
	n.flushOutbox(id, 0)
}

// RunFor processes events until the queue drains or the virtual clock would
// pass the deadline; remaining events stay queued. Chaos tests use it to
// advance the clock past a plan's horizon even when no traffic is pending.
func (n *Network) RunFor(d time.Duration) int {
	deadline := n.now + d
	processed := 0
	for n.queue.Len() > 0 && n.queue[0].at <= deadline {
		processed += n.step()
	}
	if n.now < deadline {
		n.now = deadline
	}
	return processed
}
