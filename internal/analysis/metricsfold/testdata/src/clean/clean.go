// Package clean is the negative case: complete accumulators and
// non-accumulator Add methods the analyzer must accept untouched.
package clean

import "time"

// Metrics mirrors the real xmlac.Metrics shape: int64 counters, a
// time.Duration, a float and a nested accumulator folded via its own Add.
type Metrics struct {
	Bytes   int64
	Views   int64
	Latency time.Duration
	Score   float64
	Phases  Phases
}

func (m *Metrics) Add(o *Metrics) {
	m.Bytes += o.Bytes
	m.Views += o.Views
	m.Latency += o.Latency
	m.Score += o.Score
	m.Phases.Add(&o.Phases)
}

// Phases folds every field.
type Phases struct {
	EvalNs int64
	EmitNs int64
}

func (b *Phases) Add(o *Phases) {
	b.EvalNs += o.EvalNs
	b.EmitNs += o.EmitNs
}

// Costs takes its parameter by value.
type Costs struct {
	Transferred int64
	Decrypted   int64
}

func (c *Costs) Add(o Costs) {
	c.Transferred += o.Transferred
	c.Decrypted += o.Decrypted
}

// Rule / Policy: Add whose parameter is a different type is an appender,
// not an accumulator, and is out of scope.
type Rule struct{ ID string }

type Policy struct{ Rules []Rule }

func (p *Policy) Add(r Rule) {
	p.Rules = append(p.Rules, r)
}

// MaxStats folds with something other than +=; any same-statement
// write/read pairing counts.
type MaxStats struct {
	Peak int64
}

func (m *MaxStats) Add(o *MaxStats) {
	m.Peak = max(m.Peak, o.Peak)
}
