package wirefmt

import (
	"fmt"
	"io"
	"net"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// extThreshold is the payload size above which a byte slice is written by
// reference (its own iovec in the vectored write) instead of being copied
// into the batch buffer. Raw document bodies clear it; everything else is
// cheaper to copy than to add a writev segment for.
const extThreshold = 256

// seg is one wire-ordered piece of a batch: either a range of the encoder's
// scratch buffer (recorded as offsets, so scratch may reallocate while the
// batch grows) or an external message-owned byte slice.
type seg struct {
	off, end int
	ext      []byte
}

// Encoder writes binary frames to one link. It is not safe for concurrent
// use — the transport funnels each connection's writes through a single
// writer goroutine, which is what makes the lock-free dictionary and the
// reused batch buffers sound.
//
// Queue appends a message's frames to the current batch without touching
// the connection; Flush writes the whole batch — a dictionary-extension
// frame for any symbols first used in this batch, then the message frames —
// in one vectored write. Steady state (no new symbols, warm buffers)
// allocates nothing.
type Encoder struct {
	w   io.Writer
	lim Limits

	ids     map[string]uint32
	nextID  uint32
	newSyms []string // symbols interned since the last Flush, in id order

	scratch  []byte
	segs     []seg
	bufs     [][]byte
	nb       net.Buffers // consumable view of bufs for the vectored write
	runStart int         // start of the scratch run being written
	extLen   int         // external bytes of the message being encoded
	pendExt  int         // external bytes of all messages queued this batch
	elems    int         // element budget of the document being encoded
	advCount int         // item budget of the advertisement being encoded

	// Frames counts message frames queued since construction — the
	// transport's per-link frame counter reads it after each Flush.
	Frames int64
}

// NewEncoder builds an encoder for one connection with an empty symbol
// dictionary (the state both ends agree on at attach).
func NewEncoder(w io.Writer, lim Limits) *Encoder {
	return &Encoder{w: w, lim: lim, ids: make(map[string]uint32)}
}

// Hello writes the connection preamble announcing the dialler's id. It must
// precede every frame, and it writes straight through, so its bytes are not
// counted in any Flush total.
func (e *Encoder) Hello(id string) error {
	if len(id) > e.lim.MaxName {
		return fmt.Errorf("wirefmt: hello id of %d bytes exceeds %d", len(id), e.lim.MaxName)
	}
	b := append([]byte(helloMagic), helloVersion)
	b = appendUvarint(b, uint64(len(id)))
	_, err := e.w.Write(append(b, id...))
	return err
}

// Queue encodes one message into the current batch. On error the batch is
// left as it was before the call; the error means the message violates a
// wire bound and the link should be torn down (legitimate traffic never
// trips one — inbound frames were bounds-checked on ingress).
func (e *Encoder) Queue(m *broker.Message) error {
	scratchMark, segMark := len(e.scratch), len(e.segs)
	e.segs = append(e.segs, seg{}) // length-prefix placeholder
	plStart := len(e.scratch)
	e.runStart = plStart
	e.extLen = 0
	if err := e.message(m); err != nil {
		e.scratch = e.scratch[:scratchMark]
		e.segs = e.segs[:segMark]
		return err
	}
	if len(e.scratch) > e.runStart {
		e.segs = append(e.segs, seg{off: e.runStart, end: len(e.scratch)})
	}
	payload := len(e.scratch) - plStart + e.extLen
	if payload > e.lim.MaxFrame {
		e.scratch = e.scratch[:scratchMark]
		e.segs = e.segs[:segMark]
		return fmt.Errorf("wirefmt: frame of %d bytes exceeds %d", payload, e.lim.MaxFrame)
	}
	lenOff := len(e.scratch)
	e.scratch = appendUvarint(e.scratch, uint64(payload))
	e.segs[segMark] = seg{off: lenOff, end: len(e.scratch)}
	e.pendExt += e.extLen
	e.Frames++
	return nil
}

// Flush writes the queued batch — new dictionary entries first, then the
// message frames — in one vectored write and resets the batch buffers. It
// returns the bytes written.
func (e *Encoder) Flush() (int64, error) {
	if len(e.segs) == 0 && len(e.newSyms) == 0 {
		return 0, nil
	}
	// The dictionary-extension frame is built in scratch too; every scratch
	// append happens before any slice of scratch is taken, so reallocation
	// cannot invalidate the vectored segments.
	dictOff, dictEnd, dictLenOff := -1, -1, -1
	if len(e.newSyms) > 0 {
		dictOff = len(e.scratch)
		e.scratch = append(e.scratch, frameDict)
		e.scratch = appendUvarint(e.scratch, uint64(e.nextID)-uint64(len(e.newSyms)))
		e.scratch = appendUvarint(e.scratch, uint64(len(e.newSyms)))
		for _, s := range e.newSyms {
			e.scratch = appendUvarint(e.scratch, uint64(len(s)))
			e.scratch = append(e.scratch, s...)
		}
		dictEnd = len(e.scratch)
		dictLenOff = len(e.scratch)
		e.scratch = appendUvarint(e.scratch, uint64(dictEnd-dictOff))
	}
	bufs := e.bufs[:0]
	var total int64
	add := func(b []byte) {
		bufs = append(bufs, b)
		total += int64(len(b))
	}
	if dictOff >= 0 {
		add(e.scratch[dictLenOff:])
		add(e.scratch[dictOff:dictEnd])
	}
	for _, s := range e.segs {
		if s.ext != nil {
			add(s.ext)
		} else {
			add(e.scratch[s.off:s.end])
		}
	}
	// WriteTo consumes its receiver (writev advances the slice), so it gets
	// a throwaway view in a reused field; bufs itself keeps its capacity.
	e.nb = net.Buffers(bufs)
	_, err := e.nb.WriteTo(e.w)
	e.nb = nil
	e.bufs = bufs[:0]
	e.scratch = e.scratch[:0]
	e.segs = e.segs[:0]
	e.newSyms = e.newSyms[:0]
	e.pendExt = 0
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Encode is Queue followed by Flush — the unbatched path (clients, control
// traffic, tests).
func (e *Encoder) Encode(m *broker.Message) error {
	if err := e.Queue(m); err != nil {
		return err
	}
	_, err := e.Flush()
	return err
}

// DictLen returns the number of symbols interned so far (observability).
func (e *Encoder) DictLen() int { return int(e.nextID) }

// Pending returns the approximate bytes queued and not yet flushed — what
// the transport's batching writer compares against its max-batch-bytes cap.
func (e *Encoder) Pending() int { return len(e.scratch) + e.pendExt }

// --- scratch append helpers ---

func (e *Encoder) u(v uint64)  { e.scratch = appendUvarint(e.scratch, v) }
func (e *Encoder) sv(v int64)  { e.scratch = appendUvarint(e.scratch, zigzag(v)) }
func (e *Encoder) byte(b byte) { e.scratch = append(e.scratch, b) }

// str writes a length-prefixed byte string inline.
func (e *Encoder) str(s string) {
	e.u(uint64(len(s)))
	e.scratch = append(e.scratch, s...)
}

// bytesMaybeExt writes a length prefix, then the bytes — inline when small,
// as their own vectored segment when large (the caller must not mutate b
// until the batch is flushed; message payloads are immutable by contract).
func (e *Encoder) bytesMaybeExt(b []byte) {
	e.u(uint64(len(b)))
	if len(b) <= extThreshold {
		e.scratch = append(e.scratch, b...)
		return
	}
	if len(e.scratch) > e.runStart {
		e.segs = append(e.segs, seg{off: e.runStart, end: len(e.scratch)})
	}
	e.segs = append(e.segs, seg{ext: b})
	e.runStart = len(e.scratch)
	e.extLen += len(b)
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
	return e.advItems(a.Items, 0)
}

func (e *Encoder) advItems(items []advert.Item, depth int) error {
	if depth > e.lim.MaxAdvDepth {
		return fmt.Errorf("wirefmt: advertisement groups nested deeper than %d", e.lim.MaxAdvDepth)
	}
	e.u(uint64(len(items)))
	for _, it := range items {
		if e.advCount++; e.advCount > e.lim.MaxAdvItems {
			return fmt.Errorf("wirefmt: advertisement with more than %d items", e.lim.MaxAdvItems)
		}
		if it.IsGroup() {
			e.byte(1)
			if err := e.advItems(it.Group, depth+1); err != nil {
				return err
			}
		} else {
			e.byte(0)
			if err := e.sym(it.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Encoder) publish(m *broker.Message) error {
	var flags byte
	if m.Doc != nil {
		flags |= pubFlagDoc
	}
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
	if flags&pubFlagDoc != 0 && flags&pubFlagRaw != 0 {
		return fmt.Errorf("wirefmt: publication carrying both raw and parsed document")
	}
	e.byte(flags)
	e.u(m.Pub.DocID)
	e.sv(int64(m.Pub.PathID))
	e.sv(m.Stamp)
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
		e.u(uint64(len(m.Pub.Attrs)))
		for _, am := range m.Pub.Attrs {
			if am == nil {
				e.u(0)
				continue
			}
			e.u(uint64(len(am)) + 1)
			for k, v := range am {
				if err := e.sym(k); err != nil {
					return err
				}
				e.str(v)
			}
		}
	}
	if flags&pubFlagDoc != 0 {
		e.elems = 0
		if m.Doc.Root == nil {
			return fmt.Errorf("wirefmt: document without a root")
		}
		if err := e.elem(m.Doc.Root, 0); err != nil {
			return err
		}
	}
	if flags&pubFlagRaw != 0 {
		if len(m.Raw) > e.lim.MaxRawDoc {
			return fmt.Errorf("wirefmt: raw document of %d bytes exceeds %d", len(m.Raw), e.lim.MaxRawDoc)
		}
		e.bytesMaybeExt(m.Raw)
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

func (e *Encoder) elem(el *xmldoc.Elem, depth int) error {
	if depth >= e.lim.MaxDocDepth {
		return fmt.Errorf("wirefmt: document deeper than %d", e.lim.MaxDocDepth)
	}
	if e.elems++; e.elems > e.lim.MaxDocElems {
		return fmt.Errorf("wirefmt: document with more than %d elements", e.lim.MaxDocElems)
	}
	if err := e.sym(el.Name); err != nil {
		return err
	}
	e.u(uint64(len(el.Attrs)))
	for _, a := range el.Attrs {
		if err := e.sym(a.Name); err != nil {
			return err
		}
		e.str(a.Value)
	}
	e.str(el.Text)
	e.u(uint64(len(el.Children)))
	for _, c := range el.Children {
		if c == nil {
			return fmt.Errorf("wirefmt: nil child element")
		}
		if err := e.elem(c, depth+1); err != nil {
			return err
		}
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
