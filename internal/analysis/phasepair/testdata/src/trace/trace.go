// Package trace mimics the xmlac/internal/trace contract for the golden
// tests (the real package is internal to the xmlac module and cannot be
// imported from the test module): a phase-switch Context whose exported
// methods must all be nil-receiver-safe. The analyzer is configured with
// this type for both the switch and the nil-safety checks.
package trace

// Phase identifies one pipeline phase.
type Phase int

// Phase constants used by the golden packages.
const (
	PhaseDecrypt Phase = iota
	PhaseVerify
	PhaseHashFetch
	PhaseDecode
	PhaseSkip
	PhaseEval
	PhaseEmit
	PhaseFetch
	PhaseResync
)

// Context holds the current phase.
type Context struct {
	id    string
	cur   Phase
	count int64
}

// Enter switches phases (guarded, like the real Context, with the switch
// split out).
func (c *Context) Enter(p Phase) Phase {
	if c == nil {
		return p
	}
	return c.enter(p)
}

func (c *Context) enter(p Phase) Phase {
	prev := c.cur
	c.cur = p
	return prev
}

// ID is guarded correctly.
func (c *Context) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// Bump is missing the guard.
func (c *Context) Bump() { // want `exported method Bump of nil-safe type Context must begin with a nil-receiver guard`
	c.count++
}

// Snapshot uses a value receiver: calling it on the nil pointer the
// disabled pipeline threads through panics before the body runs.
func (c Context) Snapshot() int64 { // want `exported method Snapshot of nil-safe type Context must use a pointer receiver`
	return c.count
}

// reset is unexported: internal call sites hold non-nil receivers.
func (c *Context) reset() {
	c.count = 0
}
