package xmlac

import "xmlac/internal/core"

// CompiledPolicy is a policy compiled once to its Access Rules Automata,
// ready to be evaluated many times. Compiling a policy (XPath parsing and
// automata construction) is pure per-subject session work: a client
// compiles each subject's policy once and passes it to every view of that
// subject.
//
// A CompiledPolicy is immutable and safe for concurrent use by any number of
// goroutines.
type CompiledPolicy struct {
	subject string
	core    *core.CompiledPolicy
}

// Compile validates the policy and compiles every rule to its automaton; an
// invalid rule fails with ErrInvalidPolicy. The returned CompiledPolicy
// evaluates exactly like the declarative policy (EvaluateDocument is the
// plaintext reference).
func (p Policy) Compile() (*CompiledPolicy, error) {
	internal, err := p.compile()
	if err != nil {
		return nil, err
	}
	return &CompiledPolicy{subject: p.Subject, core: core.CompilePolicy(internal)}, nil
}
