package wirefmt

import (
	"fmt"
	"io"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/xpath"
)

// Encoder writes binary frames to one link. It is not safe for concurrent
// use: the transport encodes each connection's messages under that
// connection's lock, which is what makes the lock-free dictionary and the
// reused scratch buffer sound.
//
// Append encodes a message as whole frames onto a caller's buffer — a
// dictionary-extension frame for the names the message uses first, right
// before the message frame — so a link's byte stream is the same however
// its frames fall into writes. Encode does the same into the encoder's own
// buffer and writes it in one Write. Steady state (no new symbols, warm
// buffers) allocates nothing.
type Encoder struct {
	w   io.Writer
	lim Limits

	ids     map[string]uint32
	nextID  uint32
	newSyms []string // symbols first used by the message being encoded

	// stamp is the Stamp of the last publication encoded on this stream,
	// the base the next one's Stamp is written against. It starts at 0,
	// like the Decoder's, and only publish frames move it.
	stamp int64

	// scratch holds the payload of the message being encoded, all but a
	// raw body: that is copied once, straight into the caller's buffer, at
	// offset rawAt of the payload.
	scratch  []byte
	raw      []byte
	rawAt    int
	advCount int    // item budget of the advertisement being encoded
	out      []byte // Encode's buffer
}

// NewEncoder builds an encoder for one connection with an empty symbol
// dictionary (the state both ends agree on at attach).
func NewEncoder(w io.Writer, lim Limits) *Encoder {
	return &Encoder{w: w, lim: lim, ids: make(map[string]uint32)}
}

// Hello writes the connection preamble announcing the dialler's id. It must
// precede every frame, and it writes straight through to the encoder's
// writer.
func (e *Encoder) Hello(id string) error {
	if len(id) > e.lim.MaxName {
		return fmt.Errorf("wirefmt: hello id of %d bytes exceeds %d", len(id), e.lim.MaxName)
	}
	b := append([]byte(helloMagic), helloVersion)
	b = appendUvarint(b, uint64(len(id)))
	_, err := e.w.Write(append(b, id...))
	return err
}

// Append encodes one message onto buf as whole frames and returns the
// extended buffer. On error buf, the dictionary and the stamp base are left
// as they were before the call; the error means the message violates a
// wire bound and the link should be torn down (legitimate traffic never
// trips one — inbound frames were bounds-checked on ingress).
func (e *Encoder) Append(buf []byte, m *broker.Message) ([]byte, error) {
	stampMark := e.stamp
	e.scratch, e.newSyms = e.scratch[:0], e.newSyms[:0]
	err := e.message(m)
	raw := e.raw
	e.raw = nil
	payload := len(e.scratch) + len(raw)
	if err == nil && payload > e.lim.MaxFrame {
		err = fmt.Errorf("wirefmt: frame of %d bytes exceeds %d", payload, e.lim.MaxFrame)
	}
	if err != nil {
		for _, s := range e.newSyms {
			delete(e.ids, s)
		}
		e.nextID -= uint32(len(e.newSyms))
		e.stamp = stampMark
		return buf, err
	}
	if len(e.newSyms) > 0 {
		first, count := uint64(e.nextID)-uint64(len(e.newSyms)), uint64(len(e.newSyms))
		n := 1 + uvarintLen(first) + uvarintLen(count)
		for _, s := range e.newSyms {
			n += uvarintLen(uint64(len(s))) + len(s)
		}
		buf = appendUvarint(buf, uint64(n))
		buf = append(buf, frameDict)
		buf = appendUvarint(buf, first)
		buf = appendUvarint(buf, count)
		for _, s := range e.newSyms {
			buf = appendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	buf = appendUvarint(buf, uint64(payload))
	if raw == nil {
		return append(buf, e.scratch...), nil
	}
	buf = append(buf, e.scratch[:e.rawAt]...)
	buf = append(buf, raw...)
	return append(buf, e.scratch[e.rawAt:]...), nil
}

// Encode appends one message's frames to the encoder's own buffer and
// writes them in one Write — the unbatched path (clients, tests).
func (e *Encoder) Encode(m *broker.Message) error {
	b, err := e.Append(e.out[:0], m)
	e.out = b[:0]
	if err != nil {
		return err
	}
	_, err = e.w.Write(b)
	return err
}

// DictLen returns the number of symbols interned so far (observability).
func (e *Encoder) DictLen() int { return int(e.nextID) }

// --- scratch append helpers ---

func (e *Encoder) u(v uint64)  { e.scratch = appendUvarint(e.scratch, v) }
func (e *Encoder) sv(v int64)  { e.scratch = appendUvarint(e.scratch, zigzag(v)) }
func (e *Encoder) byte(b byte) { e.scratch = append(e.scratch, b) }

// str writes a length-prefixed byte string inline.
func (e *Encoder) str(s string) {
	e.u(uint64(len(s)))
	e.scratch = append(e.scratch, s...)
}

// sym writes a dictionary reference, interning s on first use.
func (e *Encoder) sym(s string) error {
	id, ok := e.ids[s]
	if !ok {
		if len(s) > e.lim.MaxName {
			return fmt.Errorf("wirefmt: symbol of %d bytes exceeds %d", len(s), e.lim.MaxName)
		}
		if int(e.nextID) >= e.lim.MaxDict {
			return fmt.Errorf("wirefmt: symbol dictionary full (%d entries)", e.nextID)
		}
		id = e.nextID
		e.nextID++
		e.ids[s] = id
		e.newSyms = append(e.newSyms, s)
	}
	e.u(uint64(id))
	return nil
}

// --- message bodies ---

func (e *Encoder) message(m *broker.Message) error {
	e.byte(frameMsg)
	e.byte(byte(m.Type))
	switch m.Type {
	case broker.MsgSubscribe, broker.MsgUnsubscribe:
		return e.xpe(m.XPE)
	case broker.MsgAdvertise:
		if err := e.sym(m.AdvID); err != nil {
			return err
		}
		return e.adv(m.Adv)
	case broker.MsgUnadvertise:
		return e.sym(m.AdvID)
	case broker.MsgPublish:
		return e.publish(m)
	case broker.MsgResync:
		return e.resync(m.Resync)
	case broker.MsgHeartbeat:
		return nil
	case broker.MsgSubscribeDurable:
		if m.Durable == "" {
			return fmt.Errorf("wirefmt: durable subscription without a name")
		}
		if err := e.sym(m.Durable); err != nil {
			return err
		}
		return e.xpe(m.XPE)
	case broker.MsgAck, broker.MsgReplayBegin, broker.MsgReplayEnd:
		if m.Durable == "" {
			return fmt.Errorf("wirefmt: %s without a durable name", m.Type)
		}
		if err := e.sym(m.Durable); err != nil {
			return err
		}
		e.u(m.Seq)
		return nil
	default:
		return fmt.Errorf("wirefmt: unknown message type %d", uint8(m.Type))
	}
}

func (e *Encoder) xpe(x *xpath.XPE) error {
	if x == nil {
		return fmt.Errorf("wirefmt: missing expression")
	}
	if len(x.Steps) > e.lim.MaxSteps {
		return fmt.Errorf("wirefmt: expression with %d steps exceeds %d", len(x.Steps), e.lim.MaxSteps)
	}
	var flags byte
	if x.Relative {
		flags |= xpeFlagRelative
	}
	e.byte(flags)
	e.u(uint64(len(x.Steps)))
	for _, s := range x.Steps {
		e.byte(byte(s.Axis))
		if err := e.sym(s.Name); err != nil {
			return err
		}
		e.str(s.Preds)
	}
	return nil
}

func (e *Encoder) adv(a *advert.Advertisement) error {
	if a == nil {
		return fmt.Errorf("wirefmt: missing advertisement")
	}
	e.advCount = 0
	_, err := e.advSeq(a.Tokens(), 0, 0)
	return err
}

// advSeq writes the items of toks from index i to the end of the enclosing
// group (or of toks, at depth 0) in the nested wire layout: the item count,
// then per item a tag, 0 and the name's dictionary id, or 1 and the group's
// own item list. It returns the index of the GroupClose that ended the run.
func (e *Encoder) advSeq(toks []symtab.Sym, i, depth int) (int, error) {
	if depth > e.lim.MaxAdvDepth {
		return 0, fmt.Errorf("wirefmt: advertisement groups nested deeper than %d", e.lim.MaxAdvDepth)
	}
	e.u(uint64(advItemCount(toks, i)))
	for i < len(toks) && toks[i] != symtab.GroupClose {
		if e.advCount++; e.advCount > e.lim.MaxAdvItems {
			return 0, fmt.Errorf("wirefmt: advertisement with more than %d items", e.lim.MaxAdvItems)
		}
		if toks[i] == symtab.GroupOpen {
			e.byte(1)
			end, err := e.advSeq(toks, i+1, depth+1)
			if err != nil {
				return 0, err
			}
			i = end + 1
		} else {
			e.byte(0)
			if err := e.sym(symtab.NameOf(toks[i])); err != nil {
				return 0, err
			}
			i++
		}
	}
	return i, nil
}

// advItemCount counts the items of toks from index i to the end of the
// enclosing group: names and whole groups at that level.
func advItemCount(toks []symtab.Sym, i int) int {
	n, depth := 0, 0
	for ; i < len(toks); i++ {
		switch toks[i] {
		case symtab.GroupOpen:
			if depth == 0 {
				n++
			}
			depth++
		case symtab.GroupClose:
			if depth == 0 {
				return n
			}
			depth--
		default:
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

func (e *Encoder) publish(m *broker.Message) error {
	var flags byte
	if len(m.Raw) > 0 {
		flags |= pubFlagRaw
	}
	if m.TraceID != "" || len(m.Hops) > 0 {
		flags |= pubFlagTrace
	}
	if len(m.Pub.Attrs) > 0 {
		flags |= pubFlagAttrs
	}
	if m.Durable != "" {
		flags |= pubFlagDurable
	}
	e.byte(flags)
	e.u(m.Pub.DocID)
	e.sv(int64(m.Pub.PathID))
	e.sv(m.Stamp - e.stamp) // wraps, as the decoder's sum does
	e.stamp = m.Stamp
	if len(m.Pub.Path) > e.lim.MaxPath {
		return fmt.Errorf("wirefmt: publication path of %d elements exceeds %d", len(m.Pub.Path), e.lim.MaxPath)
	}
	e.u(uint64(len(m.Pub.Path)))
	for _, el := range m.Pub.Path {
		if err := e.sym(el); err != nil {
			return err
		}
	}
	if flags&pubFlagAttrs != 0 {
		if len(m.Pub.Attrs) > e.lim.MaxPath {
			return fmt.Errorf("wirefmt: publication with %d attribute maps exceeds %d", len(m.Pub.Attrs), e.lim.MaxPath)
		}
		// Sparse: the section's length, the count of non-empty maps, then
		// each of those as the holes skipped since the last one and the map.
		// An empty map is a hole.
		e.u(uint64(len(m.Pub.Attrs)))
		listed := 0
		for _, am := range m.Pub.Attrs {
			if len(am) > 0 {
				listed++
			}
		}
		e.u(uint64(listed))
		next := 0
		for i, am := range m.Pub.Attrs {
			if len(am) == 0 {
				continue
			}
			e.u(uint64(i - next))
			next = i + 1
			e.u(uint64(len(am)))
			for k, v := range am {
				if err := e.sym(k); err != nil {
					return err
				}
				e.str(v)
			}
		}
	}
	if flags&pubFlagRaw != 0 {
		if len(m.Raw) > e.lim.MaxRawDoc {
			return fmt.Errorf("wirefmt: raw document of %d bytes exceeds %d", len(m.Raw), e.lim.MaxRawDoc)
		}
		e.u(uint64(len(m.Raw)))
		e.raw, e.rawAt = m.Raw, len(e.scratch)
	}
	if flags&pubFlagTrace != 0 {
		if len(m.TraceID) > e.lim.MaxName {
			return fmt.Errorf("wirefmt: trace id of %d bytes", len(m.TraceID))
		}
		e.str(m.TraceID)
		if len(m.Hops) > e.lim.MaxHops {
			return fmt.Errorf("wirefmt: publication carrying %d hops exceeds %d", len(m.Hops), e.lim.MaxHops)
		}
		e.u(uint64(len(m.Hops)))
		for _, h := range m.Hops {
			if err := e.hop(h); err != nil {
				return err
			}
		}
	}
	if flags&pubFlagDurable != 0 {
		if err := e.sym(m.Durable); err != nil {
			return err
		}
		e.u(m.Seq)
	}
	return nil
}

func (e *Encoder) hop(h trace.Hop) error {
	if err := e.sym(h.Broker); err != nil {
		return err
	}
	e.sv(h.UnixNano)
	e.u(h.Epoch)
	if len(h.Stages) > e.lim.MaxHopStages {
		return fmt.Errorf("wirefmt: hop carrying %d stage durations exceeds %d", len(h.Stages), e.lim.MaxHopStages)
	}
	e.u(uint64(len(h.Stages)))
	for _, sd := range h.Stages {
		if len(sd.Stage) > e.lim.MaxStageName {
			return fmt.Errorf("wirefmt: hop stage name of %d bytes exceeds %d", len(sd.Stage), e.lim.MaxStageName)
		}
		if err := e.sym(sd.Stage); err != nil {
			return err
		}
		if sd.Nanos < 0 || sd.Nanos > e.lim.MaxStageNanos {
			return fmt.Errorf("wirefmt: hop stage duration %dns outside [0, %dns]", sd.Nanos, e.lim.MaxStageNanos)
		}
		e.sv(sd.Nanos)
	}
	return nil
}

func (e *Encoder) resync(r *broker.ResyncState) error {
	if r == nil {
		return fmt.Errorf("wirefmt: missing resync payload")
	}
	if len(r.Advs) > e.lim.MaxResync || len(r.Subs) > e.lim.MaxResync {
		return fmt.Errorf("wirefmt: resync with %d advs and %d subs exceeds %d", len(r.Advs), len(r.Subs), e.lim.MaxResync)
	}
	e.u(uint64(len(r.Advs)))
	for _, a := range r.Advs {
		if err := e.sym(a.ID); err != nil {
			return err
		}
		if err := e.adv(a.Adv); err != nil {
			return err
		}
	}
	e.u(uint64(len(r.Subs)))
	for _, x := range r.Subs {
		if err := e.xpe(x); err != nil {
			return err
		}
	}
	return nil
}
