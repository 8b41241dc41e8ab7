package server

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is the deterministic clock the timing-sensitive tests inject
// instead of sleeping on the wall clock: time only moves when a test calls
// Advance, so a session expires exactly when the test says so, on the
// slowest CI runner as on a laptop.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2004, 8, 30, 12, 0, 0, 0, time.UTC)} // VLDB 2004
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestSessionExpirySweep drives session idle expiry with the fake clock:
// no sleeping, exact control over who is idle. The periodic sweep bounds
// memory between scrapes; a snapshot sweeps too, so no export ever lists a
// session that has already expired.
func TestSessionExpirySweep(t *testing.T) {
	fc := newFakeClock()
	l := newLedger(time.Minute, fc)
	foldView(l, "old", "h", 0, nil, nil)
	fc.Advance(2 * time.Minute)
	// The periodic sweep runs every sessionSweepEvery folds; force it.
	for i := 1; i < sessionSweepEvery; i++ {
		foldView(l, "fresh", "h", 0, nil, nil)
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
	foldView(l, "late", "h", 0, nil, nil)
	snap := l.snapshot(0)
	if len(snap.Sessions) != 1 || snap.Sessions[0].Subject != "late" {
		t.Fatalf("snapshot lists sessions %+v, want only the live one", snap.Sessions)
	}
	if snap.ViewsServed != sessionSweepEvery+1 {
		t.Fatalf("views_served = %d, want %d", snap.ViewsServed, sessionSweepEvery+1)
	}
}
