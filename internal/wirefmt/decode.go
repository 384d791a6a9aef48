package wirefmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/advert"
	"repro/internal/broker"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// Decoder reads binary frames from one link. Not safe for concurrent use —
// one connection has one read loop.
//
// Every declared length is validated against the Limits AND against the
// bytes remaining in the frame before anything is allocated, so a hostile
// peer cannot make the decoder allocate more than it actually sent. The
// frame buffer itself grows only as bytes arrive off the wire (never to a
// declared length the peer hasn't paid for) and is reused across frames, so
// steady-state decode of dictionary-hit publications performs no
// allocations beyond the message's own slices — and none at all when the
// caller reuses the target message (see Decode).
//
// A publication's path arrives resolved: the decoder fills Pub.SymPath
// through syms, its per-link map from dictionary id to symtab.Default
// symbol, so a broker matches a forwarded path without interning it again.
// A peer's symbols never cross the wire; each one is derived here from the
// dictionary name.
type Decoder struct {
	r   *bufio.Reader
	lim Limits

	dict []string
	// syms maps a dictionary id to its symtab.Default symbol, None until
	// the id first names a path element, which interns it once for the link.
	// It reaches only as far as the highest id a path has used: most of a
	// dictionary names advertisements, brokers and stages, never a path.
	syms []symtab.Sym

	// Blocks that fresh messages' Path and SymPath slices are cut from (see
	// cut), so a decoded path costs no allocation of its own.
	pathBlk []string
	symBlk  []symtab.Sym

	buf []byte // reused frame buffer
	pb  []byte // payload of the frame being parsed (slice of buf)
	off int    // parse cursor into pb

	elems int // element budget of the document being parsed
}

// NewDecoder builds a decoder for one connection with an empty symbol
// dictionary. If r is not already a *bufio.Reader it is wrapped in one.
func NewDecoder(r io.Reader, lim Limits) *Decoder {
	return &Decoder{r: asBufio(r), lim: lim}
}

func asBufio(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReader(r)
}

// Reset swaps the byte source, keeping the dictionary and buffers — the
// steady-state-reuse hook benchmarks and tests use. It is NOT a new link:
// real reconnects build a fresh Decoder (fresh dictionary).
func (d *Decoder) Reset(r io.Reader) {
	if br, ok := r.(*bufio.Reader); ok {
		d.r = br
		return
	}
	d.r.Reset(r)
}

// Hello reads the connection preamble and returns the dialler's id. Any
// byte that does not fit the preamble is an error; a stream that ends early
// reports io.EOF or io.ErrUnexpectedEOF.
func (d *Decoder) Hello() (string, error) {
	var head [len(helloMagic) + 1]byte
	if _, err := io.ReadFull(d.r, head[:]); err != nil {
		return "", err
	}
	if string(head[:len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("wirefmt: bad preamble magic %q", head[:len(helloMagic)])
	}
	if v := head[len(helloMagic)]; v != helloVersion {
		return "", fmt.Errorf("wirefmt: preamble version %d, want %d", v, helloVersion)
	}
	n, err := binary.ReadUvarint(d.r)
	if err != nil {
		return "", err
	}
	if n > uint64(d.lim.MaxName) {
		return "", fmt.Errorf("wirefmt: hello id of %d bytes exceeds %d", n, d.lim.MaxName)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(d.r, id); err != nil {
		return "", err
	}
	return string(id), nil
}

// DictLen returns the number of symbols received so far (observability).
func (d *Decoder) DictLen() int { return len(d.dict) }

// Decode reads frames until one complete message arrives (consuming any
// dictionary-extension frames on the way) and fills m with it. m is
// overwritten; its Path, SymPath, Attrs, and Hops slice capacities are
// reused, so a caller that retains the previous decode's message must pass
// a fresh m. A path that does not fit is cut from the decoder's blocks;
// any other sequence that does not fit is allocated once at its declared
// length.
func (d *Decoder) Decode(m *broker.Message) error {
	for {
		n, err := binary.ReadUvarint(d.r)
		if err != nil {
			return err
		}
		if n == 0 || n > uint64(d.lim.MaxFrame) {
			return fmt.Errorf("wirefmt: frame length %d outside (0, %d]", n, d.lim.MaxFrame)
		}
		if err := d.readFrame(int(n)); err != nil {
			return err
		}
		kind, err := d.b()
		if err != nil {
			return err
		}
		switch kind {
		case frameDict:
			if err := d.dictExt(); err != nil {
				return err
			}
		case frameMsg:
			if err := d.message(m); err != nil {
				return err
			}
			if d.off != len(d.pb) {
				return fmt.Errorf("wirefmt: %d trailing bytes in frame", len(d.pb)-d.off)
			}
			return nil
		default:
			return fmt.Errorf("wirefmt: unknown frame kind %#x", kind)
		}
	}
}

// readFrame fills d.pb with n payload bytes. The buffer grows in bounded
// chunks as bytes actually arrive, so a huge declared length costs the
// sender the traffic before it costs this process the memory.
func (d *Decoder) readFrame(n int) error {
	const chunk = 64 << 10
	buf := d.buf[:0]
	for got := 0; got < n; {
		step := n - got
		if step > chunk {
			step = chunk
		}
		if cap(buf) < got+step {
			grown := make([]byte, got, growCap(cap(buf), got+step, n))
			copy(grown, buf[:got])
			buf = grown
		}
		buf = buf[:got+step]
		if _, err := io.ReadFull(d.r, buf[got:]); err != nil {
			d.buf = buf[:0]
			return err
		}
		got += step
	}
	d.buf = buf[:0]
	d.pb = buf[:n]
	d.off = 0
	return nil
}

// growCap doubles cap toward need without overshooting the frame's total.
func growCap(cur, need, total int) int {
	c := cur * 2
	if c < need {
		c = need
	}
	if c < 4096 {
		c = 4096
	}
	if c > total {
		c = total
	}
	if c < need {
		c = need
	}
	return c
}

// --- payload cursor helpers ---

func (d *Decoder) remaining() int { return len(d.pb) - d.off }

func (d *Decoder) b() (byte, error) {
	if d.off >= len(d.pb) {
		return 0, errTruncated
	}
	c := d.pb[d.off]
	d.off++
	return c, nil
}

func (d *Decoder) u() (uint64, error) {
	v, n := binary.Uvarint(d.pb[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wirefmt: bad varint")
	}
	d.off += n
	return v, nil
}

func (d *Decoder) sv() (int64, error) {
	v, err := d.u()
	return unzigzag(v), err
}

// count reads a sequence length and validates it against max and against
// the frame's remaining bytes at minBytes per element, BEFORE the caller
// allocates anything proportional to it.
func (d *Decoder) count(max, minBytes int, what string) (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	n := int(v)
	if v > uint64(max) {
		return 0, fmt.Errorf("wirefmt: %d %s exceeds %d", v, what, max)
	}
	if minBytes > 0 && n > d.remaining()/minBytes {
		return 0, fmt.Errorf("wirefmt: %d %s in a %d-byte remainder", v, what, d.remaining())
	}
	return n, nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n > d.remaining() {
		return nil, errTruncated
	}
	b := d.pb[d.off : d.off+n]
	d.off += n
	return b, nil
}

// str reads a length-prefixed string bounded by max (≤0 means bounded only
// by the frame).
func (d *Decoder) str(max int) (string, error) {
	v, err := d.u()
	if err != nil {
		return "", err
	}
	if max > 0 && v > uint64(max) {
		return "", fmt.Errorf("wirefmt: string of %d bytes exceeds %d", v, max)
	}
	b, err := d.take(int(v))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// sym resolves a dictionary reference. An id the sender never declared is a
// protocol violation.
func (d *Decoder) sym() (string, error) {
	id, err := d.symID()
	if err != nil {
		return "", err
	}
	return d.dict[id], nil
}

// symID reads a dictionary reference and returns the id, checked to be
// declared.
func (d *Decoder) symID() (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	if v >= uint64(len(d.dict)) {
		return 0, fmt.Errorf("wirefmt: unknown dictionary id %d (dictionary has %d)", v, len(d.dict))
	}
	return int(v), nil
}

// symOf returns the symtab.Default symbol of a declared dictionary id,
// interning its name the first time the link uses it in a path.
func (d *Decoder) symOf(id int) symtab.Sym {
	if id >= len(d.syms) {
		d.syms = append(d.syms, make([]symtab.Sym, id+1-len(d.syms))...)
	}
	s := d.syms[id]
	if s == symtab.None {
		s = symtab.Intern(d.dict[id])
		d.syms[id] = s
	}
	return s
}

// dictExt applies one dictionary-extension frame. Ids are sequential by
// construction; a gap or overlap means the streams disagree and the link is
// torn down.
func (d *Decoder) dictExt() error {
	first, err := d.u()
	if err != nil {
		return err
	}
	if first != uint64(len(d.dict)) {
		return fmt.Errorf("wirefmt: dictionary extension at id %d, expected %d", first, len(d.dict))
	}
	n, err := d.count(d.lim.MaxDict-len(d.dict), 1, "dictionary entries")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		s, err := d.str(d.lim.MaxName)
		if err != nil {
			return err
		}
		d.dict = append(d.dict, s)
	}
	if d.off != len(d.pb) {
		return fmt.Errorf("wirefmt: %d trailing bytes in dictionary frame", len(d.pb)-d.off)
	}
	return nil
}

// --- message bodies ---

func (d *Decoder) message(m *broker.Message) error {
	// Recycle the big slice capacities, then zero everything else.
	path, syms := m.Pub.Path[:0], m.Pub.SymPath[:0]
	attrs := m.Pub.Attrs[:0]
	hops := m.Hops[:0]
	*m = broker.Message{}
	t, err := d.b()
	if err != nil {
		return err
	}
	m.Type = broker.MsgType(t)
	switch m.Type {
	case broker.MsgSubscribe, broker.MsgUnsubscribe:
		m.XPE, err = d.xpe()
		return err
	case broker.MsgAdvertise:
		if m.AdvID, err = d.advID(); err != nil {
			return err
		}
		m.Adv, err = d.adv()
		return err
	case broker.MsgUnadvertise:
		m.AdvID, err = d.advID()
		return err
	case broker.MsgPublish:
		return d.publish(m, path, syms, attrs, hops)
	case broker.MsgResync:
		m.Resync, err = d.resync()
		return err
	case broker.MsgHeartbeat:
		return nil
	case broker.MsgSubscribeDurable:
		if m.Durable, err = d.durName(); err != nil {
			return err
		}
		m.XPE, err = d.xpe()
		return err
	case broker.MsgAck, broker.MsgReplayBegin, broker.MsgReplayEnd:
		if m.Durable, err = d.durName(); err != nil {
			return err
		}
		m.Seq, err = d.u()
		return err
	default:
		return fmt.Errorf("wirefmt: unknown message type %d", t)
	}
}

// advID is a dictionary symbol naming an advertisement; it may never be
// empty.
func (d *Decoder) advID() (string, error) {
	id, err := d.sym()
	if err != nil {
		return "", err
	}
	if id == "" {
		return "", fmt.Errorf("wirefmt: empty advertisement id")
	}
	return id, nil
}

// durName is a dictionary symbol naming a durable subscription; it may
// never be empty where it appears.
func (d *Decoder) durName() (string, error) {
	name, err := d.sym()
	if err != nil {
		return "", err
	}
	if name == "" {
		return "", fmt.Errorf("wirefmt: empty durable name")
	}
	return name, nil
}

func (d *Decoder) xpe() (*xpath.XPE, error) {
	flags, err := d.b()
	if err != nil {
		return nil, err
	}
	n, err := d.count(d.lim.MaxSteps, 3, "steps")
	if err != nil {
		return nil, err
	}
	x := &xpath.XPE{Relative: flags&xpeFlagRelative != 0}
	if n > 0 {
		x.Steps = make([]xpath.Step, n)
	}
	for i := 0; i < n; i++ {
		a, err := d.b()
		if err != nil {
			return nil, err
		}
		if a > byte(xpath.Descendant) {
			return nil, fmt.Errorf("wirefmt: unknown axis %d", a)
		}
		name, err := d.sym()
		if err != nil {
			return nil, err
		}
		preds, err := d.str(0)
		if err != nil {
			return nil, err
		}
		x.Steps[i] = xpath.Step{Axis: xpath.Axis(a), Name: name, Preds: preds}
	}
	// The matchers assume the parser's invariants; a decoded step list never
	// saw the parser.
	if err := x.Validate(); err != nil {
		return nil, fmt.Errorf("wirefmt: %w", err)
	}
	return x, nil
}

func (d *Decoder) adv() (*advert.Advertisement, error) {
	d.elems = 0 // reused as the advertisement item budget
	items, err := d.advItems(0)
	if err != nil {
		return nil, err
	}
	if d.elems == 0 {
		return nil, fmt.Errorf("wirefmt: empty advertisement")
	}
	return &advert.Advertisement{Items: items}, nil
}

func (d *Decoder) advItems(depth int) ([]advert.Item, error) {
	if depth > d.lim.MaxAdvDepth {
		return nil, fmt.Errorf("wirefmt: advertisement groups nested deeper than %d", d.lim.MaxAdvDepth)
	}
	n, err := d.count(d.lim.MaxAdvItems-d.elems, 2, "advertisement items")
	if err != nil {
		return nil, err
	}
	if n == 0 && depth > 0 {
		return nil, fmt.Errorf("wirefmt: empty advertisement group")
	}
	var items []advert.Item
	if n > 0 {
		items = make([]advert.Item, n)
	}
	for i := 0; i < n; i++ {
		tag, err := d.b()
		if err != nil {
			return nil, err
		}
		d.elems++
		switch tag {
		case 0:
			name, err := d.sym()
			if err != nil {
				return nil, err
			}
			items[i] = advert.Item{Name: name}
		case 1:
			group, err := d.advItems(depth + 1)
			if err != nil {
				return nil, err
			}
			items[i] = advert.Item{Group: group}
		default:
			return nil, fmt.Errorf("wirefmt: unknown advertisement item tag %d", tag)
		}
	}
	return items, nil
}

func (d *Decoder) publish(m *broker.Message, path []string, syms []symtab.Sym, attrs []map[string]string, hops []trace.Hop) error {
	flags, err := d.b()
	if err != nil {
		return err
	}
	if flags&pubFlagDoc != 0 && flags&pubFlagRaw != 0 {
		return fmt.Errorf("wirefmt: publication carrying both raw and parsed document")
	}
	if m.Pub.DocID, err = d.u(); err != nil {
		return err
	}
	pid, err := d.sv()
	if err != nil {
		return err
	}
	m.Pub.PathID = int(pid)
	if m.Stamp, err = d.sv(); err != nil {
		return err
	}
	n, err := d.count(d.lim.MaxPath, 1, "path elements")
	if err != nil {
		return err
	}
	if n > 0 {
		path, syms = cut(path, &d.pathBlk, n, pathBlock), cut(syms, &d.symBlk, n, symBlock)
		for i := range path {
			id, err := d.symID()
			if err != nil {
				return err
			}
			path[i], syms[i] = d.dict[id], d.symOf(id)
		}
		m.Pub.Path, m.Pub.SymPath = path, syms
	}
	if flags&pubFlagAttrs != 0 {
		if m.Pub.Attrs, err = d.attrs(attrs); err != nil {
			return err
		}
	}
	if flags&pubFlagDoc != 0 {
		d.elems = 0
		root, err := d.elem(0)
		if err != nil {
			return err
		}
		m.Doc = &xmldoc.Document{Root: root}
	}
	if flags&pubFlagRaw != 0 {
		nr, err := d.count(d.lim.MaxRawDoc, 1, "raw bytes")
		if err != nil {
			return err
		}
		if nr == 0 {
			return fmt.Errorf("wirefmt: empty raw body")
		}
		b, err := d.take(nr)
		if err != nil {
			return err
		}
		// Copied out: the frame buffer is reused for the next frame while
		// the broker still holds (and forwards) these bytes.
		m.Raw = append([]byte(nil), b...)
	}
	if flags&pubFlagTrace != 0 {
		if m.TraceID, err = d.str(d.lim.MaxName); err != nil {
			return err
		}
		nh, err := d.count(d.lim.MaxHops, 3, "hops")
		if err != nil {
			return err
		}
		hops = fit(hops, nh)
		for i := 0; i < nh; i++ {
			h, err := d.hop()
			if err != nil {
				return err
			}
			hops = append(hops, h)
		}
		if nh > 0 {
			m.Hops = hops
		}
	}
	if flags&pubFlagDurable != 0 {
		if m.Durable, err = d.durName(); err != nil {
			return err
		}
		if m.Seq, err = d.u(); err != nil {
			return err
		}
	}
	return nil
}

// attrs decodes a publication's attribute section into the recycled slice
// attrs. A section whose elements all lack attributes — a path sent with
// its attribute holes — decodes to a window of the shared noAttrs, which
// costs nothing and keeps the section's shape for the next hop.
func (d *Decoder) attrs(attrs []map[string]string) ([]map[string]string, error) {
	na, err := d.count(d.lim.MaxPath, 1, "attribute maps")
	if err != nil {
		return nil, err
	}
	if sharesNoAttrs(attrs) {
		attrs = nil // never written
	}
	// The recycled attrs slice may still hold last message's maps past its
	// truncated length; positionally matching ones are cleared and refilled
	// instead of reallocated, so a steady stream of identically-shaped
	// publications decodes without touching the heap.
	old := attrs[:cap(attrs)]
	attrs = attrs[:0]
	filled := false // a map has appeared; attrs holds entries 0..i-1
	for i := 0; i < na; i++ {
		v, err := d.count(d.remaining(), 2, "attribute pairs")
		if err != nil {
			return nil, err
		}
		if v == 0 {
			if filled {
				attrs = append(attrs, nil)
			}
			continue
		}
		if !filled {
			attrs = fit(attrs, na)[:i]
			clear(attrs)
			filled = true
		}
		var am map[string]string
		if i < len(old) && old[i] != nil {
			am = old[i]
			clear(am)
		} else {
			am = make(map[string]string, v-1)
		}
		for j := 0; j < v-1; j++ {
			k, err := d.sym()
			if err != nil {
				return nil, err
			}
			val, err := d.str(0)
			if err != nil {
				return nil, err
			}
			am[k] = val
		}
		attrs = append(attrs, am)
	}
	switch {
	case filled:
		return attrs, nil
	case na == 0:
		return nil, nil
	case na <= len(noAttrs):
		return noAttrs[:na:na], nil
	default:
		return make([]map[string]string, na), nil
	}
}

// noAttrs backs the attribute section of every decoded publication whose
// elements all lack attributes. It is never written: decoded messages are
// immutable by contract, and Decode does not recycle a window of it.
var noAttrs [MaxPath]map[string]string

// sharesNoAttrs reports whether s is a window of noAttrs.
func sharesNoAttrs(s []map[string]string) bool {
	return cap(s) > 0 && &s[:1][0] == &noAttrs[0]
}

// fit returns s emptied with room for n elements: s itself when its
// capacity suffices (a reused message), else one exactly sized slice, so a
// fresh message pays one allocation per sequence instead of append's growth
// steps.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// Block lengths for decoded paths: 4 KiB each, a few dozen typical paths
// per allocation.
const (
	pathBlock = 256  // names
	symBlock  = 1024 // symbols
)

// cut returns s resized to n elements when its capacity suffices (a reused
// message). Otherwise it carves the next n elements off the decoder-owned
// block blk, starting a new block of per elements when the current one is
// spent; a path longer than a quarter block gets its own allocation. A
// carved slice has no spare capacity, so an append to one message's path
// copies rather than writing into the next message's elements, and the
// decoder writes a carved element again only when the message holding it is
// passed back to Decode. A block lives as long as any message cut from it.
// It holds only the dictionary's own strings or pointer-free symbols, so a
// retained message keeps its block alive but never another message's
// payload.
func cut[T string | symtab.Sym](s []T, blk *[]T, n, per int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	if len(*blk) < n {
		if n > per/4 {
			return make([]T, n)
		}
		*blk = make([]T, per)
	}
	s = (*blk)[:n:n]
	*blk = (*blk)[n:]
	return s
}

func (d *Decoder) hop() (trace.Hop, error) {
	var h trace.Hop
	var err error
	if h.Broker, err = d.sym(); err != nil {
		return h, err
	}
	if len(h.Broker) > d.lim.MaxName {
		return h, fmt.Errorf("wirefmt: hop broker id of %d bytes exceeds %d", len(h.Broker), d.lim.MaxName)
	}
	if h.UnixNano, err = d.sv(); err != nil {
		return h, err
	}
	if h.Epoch, err = d.u(); err != nil {
		return h, err
	}
	ns, err := d.count(d.lim.MaxHopStages, 2, "hop stages")
	if err != nil {
		return h, err
	}
	if ns > 0 {
		h.Stages = make([]trace.StageDur, ns)
	}
	for i := 0; i < ns; i++ {
		stage, err := d.sym()
		if err != nil {
			return h, err
		}
		if len(stage) > d.lim.MaxStageName {
			return h, fmt.Errorf("wirefmt: hop stage name of %d bytes exceeds %d", len(stage), d.lim.MaxStageName)
		}
		nanos, err := d.sv()
		if err != nil {
			return h, err
		}
		if nanos < 0 || nanos > d.lim.MaxStageNanos {
			return h, fmt.Errorf("wirefmt: hop stage duration %dns outside [0, %dns]", nanos, d.lim.MaxStageNanos)
		}
		h.Stages[i] = trace.StageDur{Stage: stage, Nanos: nanos}
	}
	return h, nil
}

func (d *Decoder) elem(depth int) (*xmldoc.Elem, error) {
	if depth >= d.lim.MaxDocDepth {
		return nil, fmt.Errorf("wirefmt: document deeper than %d", d.lim.MaxDocDepth)
	}
	if d.elems++; d.elems > d.lim.MaxDocElems {
		return nil, fmt.Errorf("wirefmt: document with more than %d elements", d.lim.MaxDocElems)
	}
	el := &xmldoc.Elem{}
	var err error
	if el.Name, err = d.sym(); err != nil {
		return nil, err
	}
	na, err := d.count(d.remaining(), 2, "element attributes")
	if err != nil {
		return nil, err
	}
	if na > 0 {
		el.Attrs = make([]xmldoc.Attr, na)
	}
	for i := 0; i < na; i++ {
		name, err := d.sym()
		if err != nil {
			return nil, err
		}
		val, err := d.str(0)
		if err != nil {
			return nil, err
		}
		el.Attrs[i] = xmldoc.Attr{Name: name, Value: val}
	}
	if el.Text, err = d.str(0); err != nil {
		return nil, err
	}
	nc, err := d.count(d.remaining(), 2, "child elements")
	if err != nil {
		return nil, err
	}
	if nc > 0 {
		el.Children = make([]*xmldoc.Elem, nc)
	}
	for i := 0; i < nc; i++ {
		c, err := d.elem(depth + 1)
		if err != nil {
			return nil, err
		}
		el.Children[i] = c
	}
	return el, nil
}

func (d *Decoder) resync() (*broker.ResyncState, error) {
	r := &broker.ResyncState{}
	na, err := d.count(d.lim.MaxResync, 2, "resync advertisements")
	if err != nil {
		return nil, err
	}
	for i := 0; i < na; i++ {
		id, err := d.advID()
		if err != nil {
			return nil, err
		}
		a, err := d.adv()
		if err != nil {
			return nil, err
		}
		r.Advs = append(r.Advs, broker.ResyncAdv{ID: id, Adv: a})
	}
	ns, err := d.count(d.lim.MaxResync, 2, "resync subscriptions")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ns; i++ {
		x, err := d.xpe()
		if err != nil {
			return nil, err
		}
		r.Subs = append(r.Subs, x)
	}
	return r, nil
}
