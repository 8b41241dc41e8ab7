package server

import "time"

// clock abstracts the wall clock for the server's timing-sensitive pieces
// (store timestamps, access-log durations) so tests drive time explicitly
// instead of sleeping — the difference between a determinate test and a
// flaky one. Production uses realClock; tests inject
// a fake through Options.clock.
type clock interface {
	// Now returns the current time.
	Now() time.Time
}

// realClock is the production clock.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
