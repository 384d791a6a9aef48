package wirefmt

import (
	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/xpath"
)

// symCost is the assumed wire cost of one dictionary reference: low-ordinal
// ids are one varint byte, a warm link's wider alphabet averages near two.
const symCost = 2

// EstimateSize returns the approximate on-wire bytes of one message frame
// under the binary codec on a dictionary-warm link (symbols already
// interned, so each costs symCost bytes rather than its spelled-out length).
// The simulator uses it to model link serialisation delay; it is an
// analytic walk, not an encode, so it allocates nothing and is deterministic
// across runs regardless of real dictionary state.
func EstimateSize(m *broker.Message) int {
	n := 4 // length prefix + frame kind + message type, rounded up
	switch m.Type {
	case broker.MsgSubscribe, broker.MsgUnsubscribe:
		n += xpeSize(m.XPE)
	case broker.MsgAdvertise:
		n += symCost + advSize(m.Adv)
	case broker.MsgUnadvertise:
		n += symCost
	case broker.MsgPublish:
		n += pubSize(m)
	case broker.MsgResync:
		if r := m.Resync; r != nil {
			n += uvSize(uint64(len(r.Advs))) + uvSize(uint64(len(r.Subs)))
			for _, a := range r.Advs {
				n += symCost + advSize(a.Adv)
			}
			for _, x := range r.Subs {
				n += xpeSize(x)
			}
		}
	case broker.MsgSubscribeDurable:
		n += symCost + xpeSize(m.XPE)
	case broker.MsgAck, broker.MsgReplayBegin, broker.MsgReplayEnd:
		n += symCost + uvSize(m.Seq)
	}
	return n
}

func pubSize(m *broker.Message) int {
	n := 1 + uvSize(m.Pub.DocID) + svSize(int64(m.Pub.PathID)) + svSize(m.Stamp)
	n += uvSize(uint64(len(m.Pub.Path))) + symCost*len(m.Pub.Path)
	if len(m.Pub.Attrs) > 0 {
		n += uvSize(uint64(len(m.Pub.Attrs)))
		for _, am := range m.Pub.Attrs {
			n++
			for _, v := range am {
				n += symCost + uvSize(uint64(len(v))) + len(v)
			}
		}
	}
	if len(m.Raw) > 0 {
		n += uvSize(uint64(len(m.Raw))) + len(m.Raw)
	}
	if m.TraceID != "" || len(m.Hops) > 0 {
		n += uvSize(uint64(len(m.TraceID))) + len(m.TraceID)
		n += uvSize(uint64(len(m.Hops)))
		for _, h := range m.Hops {
			n += symCost + svSize(h.UnixNano) + uvSize(h.Epoch)
			n += uvSize(uint64(len(h.Stages)))
			for _, sd := range h.Stages {
				n += symCost + svSize(sd.Nanos)
			}
		}
	}
	if m.Durable != "" {
		n += symCost + uvSize(m.Seq)
	}
	return n
}

func xpeSize(x *xpath.XPE) int {
	if x == nil {
		return 0
	}
	n := 1 + uvSize(uint64(len(x.Steps)))
	for _, s := range x.Steps {
		n += 1 + symCost + uvSize(uint64(len(s.Preds))) + len(s.Preds)
	}
	return n
}

func advSize(a *advert.Advertisement) int {
	if a == nil {
		return 0
	}
	return itemsSize(a.Items)
}

func itemsSize(items []advert.Item) int {
	n := uvSize(uint64(len(items)))
	for _, it := range items {
		n++
		if it.IsGroup() {
			n += itemsSize(it.Group)
		} else {
			n += symCost
		}
	}
	return n
}

// uvSize is the LEB128 byte length of v.
func uvSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// svSize is the zigzag-varint byte length of v.
func svSize(v int64) int { return uvSize(zigzag(v)) }
