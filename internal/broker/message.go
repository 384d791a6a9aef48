// Package broker implements the content-based XML router at the heart of the
// dissemination network: the subscription routing table (SRT, advertisements
// with their last hops), the publication routing table (PRT, a covering-
// ordered subscription tree with per-subscription last hops), and the
// handlers for the five protocol message types. The broker is transport-
// agnostic: a discrete-event simulator (package sim) and a TCP transport
// (package transport) both drive it through HandleMessage and an injected
// send function.
package broker

import (
	"fmt"
	"time"

	"repro/internal/advert"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// MsgAdvertise floods a producer advertisement through the overlay.
	MsgAdvertise MsgType = iota + 1
	// MsgUnadvertise withdraws an advertisement.
	MsgUnadvertise
	// MsgSubscribe registers an XPath subscription.
	MsgSubscribe
	// MsgUnsubscribe withdraws a subscription.
	MsgUnsubscribe
	// MsgPublish carries one publication (a root-to-leaf document path).
	MsgPublish
	// MsgResync carries one broker's full owed control state to a healed
	// neighbour (see Broker.ResyncFor): the advertisements it would have
	// flooded there and the subscriptions it has forwarded there. The
	// receiver applies it as a diff — missing entries are added, entries
	// attributed to the sender but absent from the message are withdrawn —
	// so a disconnect/reconnect cycle converges to the exact routing state
	// of a fault-free run.
	MsgResync
	// MsgHeartbeat is a transport-level liveness probe. The TCP transport
	// exchanges heartbeats on idle broker links for dead-peer detection and
	// consumes them before broker dispatch; brokers never see one.
	MsgHeartbeat
	// MsgSubscribeDurable registers a durable named subscription (Durable
	// carries the name, XPE the expression). The edge broker assigns every
	// matched publication a per-name sequence number, appends it to the
	// write-ahead publication log, and replays the unacknowledged gap when
	// the named subscription reattaches — see DESIGN.md §5i.
	MsgSubscribeDurable
	// MsgAck advances a durable subscription's acknowledged cursor: the
	// client has processed every sequence up to and including Seq.
	MsgAck
	// MsgReplayBegin brackets the start of a reattach replay on a client
	// link; Seq is the first sequence the replay covers (acked cursor + 1).
	MsgReplayBegin
	// MsgReplayEnd closes a replay; Seq is the highest sequence assigned at
	// replay time. Deliveries after it are live.
	MsgReplayEnd
)

// String returns the wire name of the message type.
func (t MsgType) String() string {
	switch t {
	case MsgAdvertise:
		return "advertise"
	case MsgUnadvertise:
		return "unadvertise"
	case MsgSubscribe:
		return "subscribe"
	case MsgUnsubscribe:
		return "unsubscribe"
	case MsgPublish:
		return "publish"
	case MsgResync:
		return "resync"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgSubscribeDurable:
		return "subscribe-durable"
	case MsgAck:
		return "ack"
	case MsgReplayBegin:
		return "replay-begin"
	case MsgReplayEnd:
		return "replay-end"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// Message is the unit exchanged between peers (brokers and clients).
type Message struct {
	Type MsgType

	// AdvID identifies an advertisement network-wide (advertise,
	// unadvertise). Advertisements are flooded; the ID deduplicates.
	AdvID string
	// Adv is the advertisement payload (advertise).
	Adv *advert.Advertisement

	// XPE is the subscription payload (subscribe, unsubscribe).
	XPE *xpath.XPE

	// Resync is the control-state payload of a resync message.
	Resync *ResyncState

	// Pub is the publication payload (publish). Routing is per path: either
	// Pub carries a single root-to-leaf path, or Doc carries a whole
	// document whose paths are all matched at each hop (publishers submit
	// entire documents; path decomposition is transparent to them).
	Pub xmldoc.Publication
	// Doc, when non-nil, is a whole-document publication.
	Doc *xmldoc.Document
	// Raw, when non-empty, is a whole-document publication as raw XML
	// bytes: the broker routes it with the streaming matcher in one pass
	// over the bytes — never parsing it into a tree — and forwards the
	// bytes untouched. Exactly one of Raw and Doc may be set. A raw body
	// that fails the scan (malformed XML or wire document bounds) is
	// dropped and counted in Stats.BadDocuments.
	Raw []byte

	// Durable names a durable subscription (subscribe-durable, ack,
	// replay-begin/end) and stamps durable deliveries: a publication
	// emitted to a durable subscriber carries the name and its assigned
	// sequence so the client can acknowledge it. Empty everywhere else.
	Durable string
	// Seq is the durable sequence number paired with Durable: the
	// delivery's assigned sequence, the cursor of an ack, the first
	// sequence of a replay (begin), or the last assigned sequence (end).
	Seq uint64

	// Stamp is the publication's emission time in nanoseconds on the
	// transport's clock (virtual for the simulator, wall for TCP); clients
	// compute notification delay from it.
	Stamp int64

	// TraceID, when non-empty, opts this publication into per-hop tracing:
	// every broker it crosses appends itself to Hops and records a trace
	// event (see package trace). Empty for untraced traffic — the hot path
	// then pays only a string comparison.
	TraceID string
	// Hops is the broker path the publication has taken so far, carried in
	// the frame so any single hop (and the final subscriber) can see the
	// full upstream path. Brokers never mutate a received hop list; they
	// forward an appended copy.
	Hops []trace.Hop

	// Receive-side span metadata, set by the local transport before the
	// publication reaches the broker. Unexported on purpose: the wire codec
	// never carries them, so the values are process-local and reset on every
	// wire crossing — a peer can neither see nor forge them.
	arrivalDecode   time.Duration // wire read + decode time of this frame
	arrivalEnqueued time.Time     // when the frame entered the matching queue
}

// SetArrival records the receive-side timings of a publication: how long
// the transport spent reading and decoding the frame, and when it was
// handed to the matching queue. The broker folds both into the publication's
// stage spans (decode and queue). The zero time disables the queue span.
func (m *Message) SetArrival(decode time.Duration, enqueued time.Time) {
	m.arrivalDecode = decode
	m.arrivalEnqueued = enqueued
}

// Arrival returns the receive-side timings recorded by SetArrival.
func (m *Message) Arrival() (decode time.Duration, enqueued time.Time) {
	return m.arrivalDecode, m.arrivalEnqueued
}

// String renders a short description for logs.
func (m *Message) String() string {
	switch m.Type {
	case MsgAdvertise, MsgUnadvertise:
		return fmt.Sprintf("%s %s", m.Type, m.AdvID)
	case MsgSubscribe, MsgUnsubscribe:
		return fmt.Sprintf("%s %s", m.Type, m.XPE)
	case MsgPublish:
		if len(m.Raw) > 0 {
			return fmt.Sprintf("%s raw-doc %dB", m.Type, len(m.Raw))
		}
		return fmt.Sprintf("%s %s", m.Type, m.Pub)
	case MsgResync:
		if m.Resync != nil {
			return fmt.Sprintf("%s advs=%d subs=%d", m.Type, len(m.Resync.Advs), len(m.Resync.Subs))
		}
		return m.Type.String()
	case MsgSubscribeDurable:
		return fmt.Sprintf("%s %s %s", m.Type, m.Durable, m.XPE)
	case MsgAck, MsgReplayBegin, MsgReplayEnd:
		return fmt.Sprintf("%s %s seq=%d", m.Type, m.Durable, m.Seq)
	default:
		return m.Type.String()
	}
}
