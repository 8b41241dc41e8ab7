package server

import "time"

// fakeClock is the deterministic clock the timing-sensitive tests inject
// instead of reading the wall clock: time never moves, so every timestamp
// and logged duration is exactly what the test says, on the slowest CI
// runner as on a laptop.
type fakeClock struct {
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2004, 8, 30, 12, 0, 0, 0, time.UTC)} // VLDB 2004
}

func (c *fakeClock) Now() time.Time { return c.now }
