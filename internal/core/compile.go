package core

import (
	"xmlac/internal/accessrule"
	"xmlac/internal/automaton"
)

// CompiledPolicy is an access-control policy compiled once to its Access Rules
// Automata. Compilation (XPath analysis and ARA construction) happens per
// (document, subject) session in the paper's architecture, not per evaluation;
// a CompiledPolicy captures that session state so the per-event automata can
// be reused across any number of evaluations.
//
// The ARAs are immutable after compilation — all per-run state lives in token
// values owned by the Evaluator — so a CompiledPolicy is safe for concurrent
// use by any number of evaluators and goroutines.
type CompiledPolicy struct {
	rules []compiledRule
}

// CompilePolicy compiles every rule of the policy to its ARA. The USER
// variable of rule predicates has already been bound to the policy subject by
// accessrule.Policy.Add, so the compiled form is subject-specific.
func CompilePolicy(policy *accessrule.Policy) *CompiledPolicy {
	cp := &CompiledPolicy{rules: make([]compiledRule, 0, len(policy.Rules))}
	for _, r := range policy.Rules {
		cp.rules = append(cp.rules, compiledRule{
			id:   r.ID,
			sign: r.Sign,
			ara:  automaton.Compile(r.ID, r.Object),
		})
	}
	return cp
}
