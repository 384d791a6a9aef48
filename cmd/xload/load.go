package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/trace"
)

// stallTimeout bounds how long a phase waits for an expected delivery (and
// the closed loop for a window slot) before counting what is outstanding as
// missing.
const stallTimeout = 5 * time.Second

// runner drives one chain: the publisher sends from the calling goroutine,
// and a consumer goroutine checks every delivery against the oracle.
//
// Each send gets a sequence number seq. Pool item seq%len(pool) goes out in
// cycle seq/len(pool) with DocID = cycle*documents + its document and its
// own PathID, so the consumer recovers seq from the delivery alone.
type runner struct {
	in   *inputs
	c    *chain
	base time.Time // origin of the run clock (monotonic)
	wall int64     // base as Unix nanoseconds, for Message.Stamp

	msg  broker.Message // reused: Client.Send encodes before returning
	next int            // next seq; publisher-owned
	// expectedSent counts sends the oracle expects delivered; publisher-owned.
	expectedSent int64

	// sentAt and recvAt hold run-clock nanoseconds + 1 per seq (0: not yet).
	// sentAt is the due time in the open loop and the send time otherwise.
	sentAt []atomic.Int64
	recvAt []atomic.Int64
	// closedFrom is the first seq of the closed loop; window holds one token
	// per outstanding expected delivery of it.
	closedFrom atomic.Int64
	window     chan struct{}

	// churn, when set, applies control changes the load loops kick.
	churn *churner

	delivered  atomic.Int64 // expected deliveries received once
	unexpected atomic.Int64 // deliveries the oracle did not expect, or altered in transit
	duplicates atomic.Int64

	mu     sync.Mutex
	traced []tracedDelivery // deliveries that carried a TraceID
	done   chan struct{}    // closed when the consumer exits
}

// tracedDelivery is one traced publication as the subscriber received it.
type tracedDelivery struct {
	seq  int
	recv int64 // run-clock ns
	hops []trace.Hop
}

// maxClosedRate bounds the rate the closed loop can reach; it sizes the
// per-seq arrays (a closed loop that reaches it ends early).
func maxClosedRate(w workload) float64 {
	if w.raw {
		return 20000
	}
	return 150000
}

// newRunner starts a runner with room for the given number of sends.
func newRunner(in *inputs, c *chain, sends int) *runner {
	w := in.w
	capacity := sends + 1024
	r := &runner{
		in:     in,
		c:      c,
		base:   time.Now(),
		sentAt: make([]atomic.Int64, capacity),
		recvAt: make([]atomic.Int64, capacity),
		window: make(chan struct{}, w.window),
		done:   make(chan struct{}),
	}
	r.wall = r.base.UnixNano()
	r.msg.Type = broker.MsgPublish
	r.closedFrom.Store(int64(capacity))
	go r.consume()
	return r
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// send publishes the next pool item, due at run-clock time due.
func (r *runner) send(due int64, traced bool) error {
	seq := r.next
	if seq >= len(r.sentAt) {
		return errors.New("send capacity exhausted")
	}
	r.next++
	n := r.in.poolLen()
	idx, cycle := seq%n, seq/n
	m := &r.msg
	if r.in.w.raw {
		m.Raw = r.in.raws[idx]
		m.Pub.DocID = uint64(cycle*n + idx)
	} else {
		m.Pub = r.in.pubs[idx]
		m.Pub.DocID = uint64(cycle*r.in.bankDocs) + m.Pub.DocID
	}
	m.Stamp = r.wall + due
	m.TraceID = ""
	if traced {
		m.TraceID = "t" + strconv.Itoa(seq)
	}
	if r.in.expect[idx] {
		r.expectedSent++
	}
	r.sentAt[seq].Store(due + 1)
	return r.c.pub.Send(m)
}

// seqOf recovers a delivery's sequence number and pool index.
func (r *runner) seqOf(m *broker.Message) (seq, idx int, ok bool) {
	if r.in.w.raw {
		n := uint64(len(r.in.raws))
		if m.Pub.PathID != 0 {
			return 0, 0, false
		}
		idx = int(m.Pub.DocID % n)
		seq = int(m.Pub.DocID/n)*len(r.in.raws) + idx
	} else {
		docs := uint64(r.in.bankDocs)
		doc := int(m.Pub.DocID % docs)
		first, end := r.in.pathStart[doc], r.in.pathStart[doc+1]
		if m.Pub.PathID < 0 || m.Pub.PathID >= end-first {
			return 0, 0, false
		}
		if idx = int(r.in.poolOf[first+m.Pub.PathID]); idx < 0 {
			return 0, 0, false
		}
		seq = int(m.Pub.DocID/docs)*len(r.in.pubs) + idx
	}
	return seq, idx, seq < len(r.sentAt)
}

// intact reports whether a delivery carries the body that was sent.
func (r *runner) intact(m *broker.Message, idx int) bool {
	if r.in.w.raw {
		return bytes.Equal(m.Raw, r.in.raws[idx])
	}
	want := r.in.pubs[idx].Path
	if len(m.Pub.Path) != len(want) {
		return false
	}
	for i := range want {
		if m.Pub.Path[i] != want[i] {
			return false
		}
	}
	return true
}

// consume checks every delivery: it must identify a sent publication the
// oracle expects, carry that publication's body, and arrive once.
func (r *runner) consume() {
	defer close(r.done)
	for m := range r.c.sub.Deliveries {
		at := r.now()
		if m.Type != broker.MsgPublish {
			continue
		}
		seq, idx, ok := r.seqOf(m)
		switch {
		case !ok || r.sentAt[seq].Load() == 0 || !r.in.expect[idx] || !r.intact(m, idx):
			r.unexpected.Add(1)
			continue
		case r.recvAt[seq].Load() != 0:
			r.duplicates.Add(1)
			continue
		}
		r.recvAt[seq].Store(at + 1)
		if m.TraceID != "" {
			r.mu.Lock()
			r.traced = append(r.traced, tracedDelivery{seq: seq, recv: at, hops: m.Hops})
			r.mu.Unlock()
		}
		if int64(seq) >= r.closedFrom.Load() {
			select {
			case <-r.window:
			default:
			}
		}
		r.delivered.Add(1)
	}
}

// drain waits until every expected delivery sent so far has arrived, or
// until none has arrived for stallTimeout.
func (r *runner) drain() {
	last, lastAt := r.delivered.Load(), time.Now()
	for {
		got := r.delivered.Load()
		if got >= r.expectedSent {
			return
		}
		if got != last {
			last, lastAt = got, time.Now()
		} else if time.Since(lastAt) > stallTimeout {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// tick is the open loop's schedule step: each tick's publications are all
// due at the tick.
const tick = time.Millisecond

// slice is the interval a phase's timings are taken over. A phase reports
// the median over its slices, so a slowdown that lasts less than half the
// phase (a collection cycle, a neighbour busy on the host) does not move it.
const slice = 250 * time.Millisecond

// openPhase is what an open-loop phase measured.
type openPhase struct {
	first, end int // seq range sent
	// delays holds the ns from due time to receipt of each expected
	// delivery, in seq order; sliceEnd[i] is the end of slice i in it.
	delays   []int64
	sliceEnd []int
	// sliceCPU is the process CPU time per publication of each slice.
	sliceCPU []float64
	lates    []int64 // ns the generator ran behind each tick
	use      usage   // resource use from the first tick until drained
	traced   []tracedDelivery
}

// sliceQuantiles returns the q-quantile of each slice's delays.
func (p *openPhase) sliceQuantiles(q float64) []float64 {
	var per []float64
	from := 0
	for _, to := range p.sliceEnd {
		if to > from {
			per = append(per, quantile(p.delays[from:to], q))
		}
		from = to
	}
	return per
}

// openLoop sends at the workload's fixed rate for dur, every tick's batch
// due at the tick, regardless of how the chain keeps up; a stall shows as
// delay on every publication due behind it. Every traceEvery-th publication
// carries a TraceID (0: none). sample, when set, runs once per tick after
// the batch is sent. With churn on, every churnTicks-th tick kicks one
// control change, and the phase ends once every kicked change is applied.
func (r *runner) openLoop(dur time.Duration, traceEvery int, sample func()) (*openPhase, error) {
	perTick := r.in.w.rate / int(time.Second/tick)
	ticks := int(dur / tick)
	sliceTicks := int(slice / tick)
	p := &openPhase{first: r.next, lates: make([]int64, 0, ticks)}
	r.mu.Lock()
	tracedBefore := len(r.traced)
	r.mu.Unlock()
	sleep, release := pacer()
	defer release()
	before := measure(r.c)
	sliceFirst, sliceCPU := r.next, processCPU()
	bounds := []int{r.next}
	start := r.now() + int64(tick)
	for k := 0; k < ticks; k++ {
		due := start + int64(k)*int64(tick)
		for wait := due - r.now(); wait > 0; wait = due - r.now() {
			sleep(time.Duration(wait))
		}
		p.lates = append(p.lates, r.now()-due)
		for j := 0; j < perTick; j++ {
			traced := traceEvery > 0 && r.next%traceEvery == 0
			if err := r.send(due, traced); err != nil {
				return nil, err
			}
		}
		if r.churn != nil && k%churnTicks == 0 {
			r.churn.kick()
		}
		if sample != nil {
			sample()
		}
		if (k+1)%sliceTicks == 0 || k+1 == ticks {
			cpu := processCPU()
			p.sliceCPU = append(p.sliceCPU, float64(cpu-sliceCPU)/1e3/float64(r.next-sliceFirst))
			sliceFirst, sliceCPU = r.next, cpu
			bounds = append(bounds, r.next)
		}
	}
	p.end = r.next
	r.churn.sync()
	r.drain()
	p.use = measure(r.c).minus(before)
	for i := 1; i < len(bounds); i++ {
		for seq := bounds[i-1]; seq < bounds[i]; seq++ {
			if at := r.recvAt[seq].Load(); at != 0 {
				p.delays = append(p.delays, at-r.sentAt[seq].Load())
			}
		}
		p.sliceEnd = append(p.sliceEnd, len(p.delays))
	}
	r.mu.Lock()
	p.traced = append(p.traced, r.traced[tracedBefore:]...)
	r.mu.Unlock()
	return p, nil
}

// closedLoop sends as fast as the window allows for dur: a publication the
// oracle expects delivered takes a window slot until it arrives, one it
// expects filtered goes straight out. With churn on, a control change is
// kicked every churnTicks ticks of the run clock. It returns the
// publications sent per second in each slice.
func (r *runner) closedLoop(dur time.Duration) ([]float64, error) {
	first := r.next
	r.closedFrom.Store(int64(first))
	start := r.now()
	stop := start + int64(dur)
	nextKick := start
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	limit := first + int(maxClosedRate(r.in.w)*dur.Seconds())
	for now := start; now < stop && r.next < limit; now = r.now() {
		if r.churn != nil && now >= nextKick {
			r.churn.kick()
			nextKick += int64(churnTicks) * int64(tick)
		}
		if r.in.expect[r.next%r.in.poolLen()] {
			select {
			case r.window <- struct{}{}:
			default:
				timer.Reset(stallTimeout)
				select {
				case r.window <- struct{}{}:
				case <-timer.C:
					return nil, fmt.Errorf("closed loop: no delivery for %v", stallTimeout)
				}
			}
		}
		if err := r.send(now, false); err != nil {
			return nil, err
		}
	}
	end, ran := r.next, min(r.now()-start, int64(dur))
	r.churn.sync()
	r.drain()
	n := int(ran / int64(slice))
	if n < 1 {
		n = 1
	}
	width := ran / int64(n)
	rates := make([]float64, n)
	for seq := first; seq < end; seq++ {
		if k := (r.sentAt[seq].Load() - 1 - start) / width; k < int64(n) {
			rates[k]++
		}
	}
	for k := range rates {
		rates[k] /= float64(width) / 1e9
	}
	return rates, nil
}

// finish closes the subscriber, waits for the consumer, and counts the
// expected deliveries that never arrived.
func (r *runner) finish() (missing int64) {
	r.c.sub.Close()
	<-r.done
	for seq := 0; seq < r.next; seq++ {
		if r.in.expect[seq%r.in.poolLen()] && r.recvAt[seq].Load() == 0 {
			missing++
		}
	}
	return missing
}
