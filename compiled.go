package xmlac

import "xmlac/internal/core"

// CompiledPolicy is a policy compiled once to its Access Rules Automata,
// ready to be evaluated many times. Compiling a policy (XPath parsing and
// automata construction) is pure per-subject session work: doing it on every
// AuthorizedView call wastes time and allocations when the same subject reads
// many documents or re-reads the same document, which is the common case for
// a client SOE.
//
// A CompiledPolicy is immutable and safe for concurrent use by any number of
// goroutines; a client can compile each subject's policy once and share it
// across every view of that subject.
type CompiledPolicy struct {
	subject string
	rules   int
	core    *core.CompiledPolicy
}

// Compile validates the policy and compiles every rule to its automaton. The
// returned CompiledPolicy evaluates exactly like the declarative policy (see
// Protected.AuthorizedViewCompiled) but skips rule parsing and automata
// construction on every subsequent evaluation.
func (p Policy) Compile() (*CompiledPolicy, error) {
	internal, err := p.compile()
	if err != nil {
		return nil, err
	}
	return &CompiledPolicy{
		subject: p.Subject,
		rules:   len(internal.Rules),
		core:    core.CompilePolicy(internal),
	}, nil
}

// Subject returns the subject the policy was compiled for.
func (cp *CompiledPolicy) Subject() string { return cp.subject }

// NumRules returns the number of compiled rules.
func (cp *CompiledPolicy) NumRules() int { return cp.rules }

// AuthorizedViewCompiled is AuthorizedView for a pre-compiled policy: the
// compile-once / evaluate-many fast path. It produces byte-identical views
// and identical metrics to AuthorizedView with the source policy.
func (p *Protected) AuthorizedViewCompiled(key Key, cp *CompiledPolicy, opts ViewOptions) (*Document, *Metrics, error) {
	return runView(p.snapshot(), key, cp, opts, nil)
}
