package main

import (
	"sync"
	"time"

	"xmlac"
)

// clock is the time source of the load generators; tests substitute a fake
// one to check how latency is measured.
type clock interface {
	Now() time.Time
	// SleepUntil returns once t has passed (at once if it already has).
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

type opKind uint8

const (
	opView opKind = iota
	opUpdate
)

func (k opKind) String() string {
	if k == opUpdate {
		return "update"
	}
	return "view"
}

// sample is one operation a client issued, with its timing and everything
// the metrics are computed from.
type sample struct {
	kind opKind
	// ready is when the generator could have sent the operation (the due
	// time in an open loop, the end of the client's previous operation in a
	// closed loop); due is where its latency is measured from (the due time
	// in an open loop, start in a closed loop).
	ready, due, start, end time.Time
	err                    error
	// retries counts the view attempts repeated after an error, the last
	// of which retryErr holds.
	retries  int
	retryErr error

	want, got digest
	// policy indexes the workload's policies: the one a view evaluated.
	policy int
	// version is the document version a store-update view read, or the one
	// an update created.
	version uint64
	m       xmlac.Metrics
	// wire and trips are a remote operation's HTTP payload bytes and
	// requests.
	wire, trips int64

	// Filled for traced operations only.
	id                      string
	reqs                    requestCounts
	pageHits, pageMisses    int64
	revalidateNs            int64
	walBytes, walCheckpoint int64
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

func (s *sample) lag() time.Duration { return s.start.Sub(s.ready) }

// client issues one workload operation at a time from its own goroutine.
type client struct {
	name string
	// schedule selects the client's due offsets from a phase's schedules;
	// nil makes the client closed-loop.
	schedule func(schedules) []time.Duration
	// prepare runs before an operation, outside its timing (opening a remote
	// session; reading server counters around a traced update).
	prepare func(s *sample) error
	// op performs the operation and fills in its result.
	op func(s *sample)
	// after runs once the operation is timed.
	after func(s *sample)
	// n counts the operations issued so far over all phases.
	n int
}

// runPhase runs every client concurrently, closed-loop clients until start+d
// and open-loop clients through their schedule, and returns all samples.
func runPhase(clk clock, clients []*client, start time.Time, d time.Duration, sched schedules) []*sample {
	var (
		mu  sync.Mutex
		all []*sample
		wg  sync.WaitGroup
	)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var got []*sample
			if c.schedule != nil {
				got = openLoop(clk, c, start, c.schedule(sched))
			} else {
				got = closedLoop(clk, c, start, start.Add(d))
			}
			mu.Lock()
			all = append(all, got...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

// closedLoop issues the client's next operation as soon as the previous one
// completes, until the deadline.
func closedLoop(clk clock, c *client, start, deadline time.Time) []*sample {
	var out []*sample
	ready := start
	for clk.Now().Before(deadline) {
		s := &sample{ready: ready}
		if !c.issue(clk, s, time.Time{}) {
			s.start, s.due, s.end = clk.Now(), clk.Now(), clk.Now()
		}
		ready = s.end
		out = append(out, s)
	}
	return out
}

// openLoop issues operation i at start+due[i] whether or not earlier ones
// have completed; a late operation's latency counts from its due time, so a
// stall shows in every operation it delays.
func openLoop(clk clock, c *client, start time.Time, due []time.Duration) []*sample {
	out := make([]*sample, 0, len(due))
	for _, off := range due {
		t := start.Add(off)
		s := &sample{ready: t}
		if !c.issue(clk, s, t) {
			s.start, s.due, s.end = clk.Now(), t, clk.Now()
		}
		out = append(out, s)
	}
	return out
}

// issue runs one operation: prepare, wait for the due time (zero in a closed
// loop), time op, then after. It reports false when prepare failed and the
// operation was not sent.
func (c *client) issue(clk clock, s *sample, due time.Time) bool {
	defer func() { c.n++ }()
	if c.prepare != nil {
		if err := c.prepare(s); err != nil {
			s.err = err
			return false
		}
	}
	if !due.IsZero() {
		clk.SleepUntil(due)
	}
	s.start = clk.Now()
	s.due = due
	if due.IsZero() {
		s.due = s.start
	}
	c.op(s)
	s.end = clk.Now()
	if c.after != nil {
		c.after(s)
	}
	return true
}
