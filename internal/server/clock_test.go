package server

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic clock the timing-sensitive tests inject
// instead of sleeping on real wall-clock windows: time only moves when a
// test calls Advance, so a coalescing window "elapses" exactly when the test
// says so, on the slowest CI runner as on a laptop.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	clock   *fakeClock
	when    time.Time
	f       func()
	stopped bool
	fired   bool
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2004, 8, 30, 12, 0, 0, 0, time.UTC)} // VLDB 2004
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) timerHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{clock: c, when: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	was := !t.stopped && !t.fired
	t.stopped = true
	return was
}

// Advance moves the clock forward and fires every timer that came due, in
// schedule order, outside the clock lock (fired functions may re-enter the
// clock).
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeTimer
	for _, t := range c.timers {
		if !t.stopped && !t.fired && !t.when.After(c.now) {
			t.fired = true
			due = append(due, t)
		}
	}
	c.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// TestFakeClockTimers pins the fake itself: timers fire exactly at their
// deadline, stopped timers never fire, and Now follows Advance.
func TestFakeClockTimers(t *testing.T) {
	fc := newFakeClock()
	fired := make(map[string]bool)
	fc.AfterFunc(10*time.Millisecond, func() { fired["a"] = true })
	handle := fc.AfterFunc(20*time.Millisecond, func() { fired["b"] = true })
	fc.AfterFunc(30*time.Millisecond, func() { fired["c"] = true })
	fc.Advance(9 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("timers fired before their deadline: %v", fired)
	}
	fc.Advance(1 * time.Millisecond)
	if !fired["a"] || fired["b"] {
		t.Fatalf("only timer a is due at +10ms: %v", fired)
	}
	if !handle.Stop() {
		t.Fatal("stopping a pending timer must report true")
	}
	fc.Advance(time.Hour)
	if fired["b"] {
		t.Fatal("stopped timer fired")
	}
	if !fired["c"] {
		t.Fatal("timer c never fired")
	}
	if handle.Stop() {
		t.Fatal("stopping a dead timer must report false")
	}
}

// TestSessionExpirySweep drives session idle expiry with the fake clock:
// no sleeping, exact control over who is idle. The periodic sweep bounds
// memory between scrapes; a snapshot sweeps too, so no export ever lists a
// session that has already expired.
func TestSessionExpirySweep(t *testing.T) {
	fc := newFakeClock()
	l := newLedger(time.Minute, fc)
	foldView(l, "old", "h", true, 0, nil, nil)
	fc.Advance(2 * time.Minute)
	// The periodic sweep runs every sessionSweepEvery folds; force it.
	for i := 1; i < sessionSweepEvery; i++ {
		foldView(l, "fresh", "h", true, 0, nil, nil)
	}
	l.mu.Lock()
	live := len(l.sessions)
	l.mu.Unlock()
	if live != 1 {
		t.Fatalf("%d sessions after expiry sweep, want 1 (the fresh one)", live)
	}

	// Without a periodic sweep due, the snapshot drops the expired session
	// itself — while the lifetime totals keep its view.
	fc.Advance(2 * time.Minute)
	foldView(l, "late", "h", true, 0, nil, nil)
	snap := l.snapshot(0)
	if len(snap.Sessions) != 1 || snap.Sessions[0].Subject != "late" {
		t.Fatalf("snapshot lists sessions %+v, want only the live one", snap.Sessions)
	}
	if snap.ViewsServed != sessionSweepEvery+1 {
		t.Fatalf("views_served = %d, want %d", snap.ViewsServed, sessionSweepEvery+1)
	}
}
