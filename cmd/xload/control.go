package main

import (
	"time"

	"repro/internal/broker"
)

// controlChange is one subscribe or unsubscribe of a held-out expression.
type controlChange struct {
	subscribe bool
	x         int // index into inputs.churn
}

// changeAt returns the k-th control change of a schedule: subscribe, then
// unsubscribe, each held-out expression in turn, so at most one is live.
func changeAt(k, pool int) controlChange {
	return controlChange{subscribe: k%2 == 0, x: (k / 2) % pool}
}

// applyTimeout bounds how long a control change may take to reach b1.
const applyTimeout = 5 * time.Second

// change sends one control change on the subscriber connection and polls,
// with the pacer's sleep, until b1's PRT reflects it. It returns the time
// that took, or false when the change was not applied within applyTimeout.
func (r *runner) change(ch controlChange, sleep func(time.Duration)) (time.Duration, bool, error) {
	msg := &broker.Message{Type: broker.MsgUnsubscribe, XPE: r.in.churn[ch.x]}
	want := r.in.upstream
	if ch.subscribe {
		msg.Type = broker.MsgSubscribe
		want++
	}
	start := time.Now()
	if err := r.c.sub.Send(msg); err != nil {
		return 0, false, err
	}
	for r.c.srv[0].PRTSize() != want {
		if time.Since(start) > applyTimeout {
			return 0, false, nil
		}
		sleep(pollEvery)
	}
	return time.Since(start), true, nil
}

// churnResult is what a sequence of control changes measured.
type churnResult struct {
	changes int
	failed  int // changes not applied within applyTimeout
	// subscribed holds the ms each applied subscribe took to reach b1. An
	// unsubscribe costs the brokers a fraction of a subscribe, so a median
	// over both kinds would sit on the gap between the two clusters.
	subscribed []float64
	err        error
}

// apply runs the k-th change of the schedule and records it.
func (res *churnResult) apply(r *runner, k int, sleep func(time.Duration)) {
	ch := changeAt(k, len(r.in.churn))
	d, ok, err := r.change(ch, sleep)
	switch {
	case err != nil:
		if res.err == nil {
			res.err = err
		}
		return
	case !ok:
		res.failed++
	case ch.subscribe:
		res.subscribed = append(res.subscribed, float64(d)/1e6)
	}
	res.changes++
}

// churn-setA kicks one control change every churnTicks ticks of its load
// loops: 20 changes (10 subscribe/unsubscribe pairs) per second. At 20 pairs
// per second the control work delayed about a tenth of the publications,
// which put the knee of the delay distribution on p90: the delay p90 swung
// between 650 and 3,600 µs from run to run.
const churnTicks = 50

// churner applies kicked control changes in order on its own goroutine, so
// the load loop never waits for one; the number of changes a phase makes
// is fixed by its length, not by how fast they apply.
type churner struct {
	kicks chan struct{}
	syncs chan chan struct{}
	done  chan churnResult
}

// startChurn starts the churner; stop ends it and returns what it measured.
func (r *runner) startChurn() *churner {
	c := &churner{
		// Changes take a few ms against a kick every 50 ms, so the buffer
		// only absorbs a slow stretch; a full one makes the load loop wait.
		kicks: make(chan struct{}, 64),
		syncs: make(chan chan struct{}),
		done:  make(chan churnResult, 1),
	}
	go func() {
		sleep, release := pacer()
		defer release()
		var res churnResult
		k := 0
		for {
			select {
			case _, ok := <-c.kicks:
				if !ok {
					c.done <- res
					return
				}
				res.apply(r, k, sleep)
				k++
			case reply := <-c.syncs:
				// The kicker waits in sync, so nothing is added meanwhile.
				for len(c.kicks) > 0 {
					<-c.kicks
					res.apply(r, k, sleep)
					k++
				}
				close(reply)
			}
		}
	}()
	return c
}

func (c *churner) kick() { c.kicks <- struct{}{} }

// sync returns once every change kicked so far has been applied; it does
// nothing on a nil churner.
func (c *churner) sync() {
	if c == nil {
		return
	}
	reply := make(chan struct{})
	c.syncs <- reply
	<-reply
}

func (c *churner) stop() churnResult {
	close(c.kicks)
	return <-c.done
}

// probeEvery spaces the idle probe's changes, so the probe samples a stretch
// of the run rather than one instant.
const probeEvery = 10 * time.Millisecond

// probe applies n changes of the schedule on the idle chain.
func (r *runner) probe(n int) churnResult {
	sleep, release := pacer()
	defer release()
	var res churnResult
	next := time.Now()
	for k := 0; k < n && res.err == nil; k++ {
		res.apply(r, k, sleep)
		next = next.Add(probeEvery)
		if wait := time.Until(next); wait > 0 {
			sleep(wait)
		}
	}
	return res
}
