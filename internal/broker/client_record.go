package broker

// ClientRecord is a client's replayable control state: its live
// subscriptions, durable subscriptions and advertisements, in send order.
// When the client reattaches to its edge broker — after its own connection
// dropped or after the broker restarted empty — it re-sends Messages() and
// the broker serves it again. Both the TCP client (package transport) and
// the simulated client (package sim) keep one, so the chaos suite exercises
// the replay the deployed client runs. The zero value is an empty record
// for a non-durable client; a ClientRecord is not safe for concurrent use.
type ClientRecord struct {
	// Durable, when non-empty, names the client's durable subscription:
	// Prepare turns each of its subscriptions into a durable registration
	// under this name.
	Durable string

	msgs []*Message
	have map[recordKey]struct{} // keys of msgs
}

// Prepare readies a message the client is about to send. A durable
// client's subscription becomes, in place, a durable registration under
// its name — before Note records it, so a replay re-sends the registration,
// which doubles as reattach and makes the broker replay the unacknowledged
// gap. Every other message is left as it is.
func (r *ClientRecord) Prepare(m *Message) {
	if r.Durable != "" && m.Type == MsgSubscribe {
		m.Type = MsgSubscribeDurable
		m.Durable = r.Durable
	}
}

// Note records a sent message. Subscriptions, durable subscriptions and
// advertisements are kept, once each (a repeat changes nothing broker-side
// either); an unsubscribe or unadvertise cancels the message it withdraws
// instead of being kept. Publications, acks and every other type are never
// recorded.
func (r *ClientRecord) Note(m *Message) {
	switch m.Type {
	case MsgSubscribe, MsgSubscribeDurable, MsgAdvertise:
		k := keyOf(m)
		if _, dup := r.have[k]; dup {
			return
		}
		if r.have == nil {
			r.have = make(map[recordKey]struct{})
		}
		r.have[k] = struct{}{}
		r.msgs = append(r.msgs, m)
	case MsgUnsubscribe:
		r.drop(recordKey{t: MsgSubscribe, expr: m.XPE.Key()})
	case MsgUnadvertise:
		r.drop(recordKey{t: MsgAdvertise, name: m.AdvID})
	}
}

// Messages returns the recorded messages in send order — what a reattach
// replays. The slice is the record's own; callers must not modify it.
func (r *ClientRecord) Messages() []*Message { return r.msgs }

// recordKey identifies a recorded message: its type, its advertisement id
// or durable name, and its expression.
type recordKey struct {
	t          MsgType
	name, expr string
}

func keyOf(m *Message) recordKey {
	switch m.Type {
	case MsgAdvertise:
		return recordKey{t: m.Type, name: m.AdvID}
	case MsgSubscribeDurable:
		return recordKey{t: m.Type, name: m.Durable, expr: m.XPE.Key()}
	default:
		return recordKey{t: m.Type, expr: m.XPE.Key()}
	}
}

// drop removes the recorded message with key k, if there is one.
func (r *ClientRecord) drop(k recordKey) {
	if _, ok := r.have[k]; !ok {
		return
	}
	delete(r.have, k)
	for i, m := range r.msgs {
		if keyOf(m) == k {
			r.msgs = append(r.msgs[:i], r.msgs[i+1:]...)
			return
		}
	}
}
