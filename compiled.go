package xmlac

import (
	"io"

	"xmlac/internal/core"
)

// CompiledPolicy is a policy compiled once to its Access Rules Automata,
// ready to be evaluated many times. Compiling a policy (XPath parsing and
// automata construction) is pure per-subject session work: doing it on every
// AuthorizedView call wastes time and allocations when the same subject reads
// many documents or re-reads the same document, which is the common case for
// a server streaming authorized views to a fleet of clients.
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
	return runView(p.snapshot(), key, CompiledView{Policy: cp, Options: opts})
}

// CompiledView describes one subject's requested view inside a shared scan
// (AuthorizedViewsCompiled): the subject's compiled policy, its per-view
// options (query, dummy names, indentation — everything is per-subject) and
// an optional streaming destination.
type CompiledView struct {
	// Policy is the subject's compiled policy. Required.
	Policy *CompiledPolicy
	// Options tunes this subject's view independently of the other subjects
	// sharing the scan.
	Options ViewOptions
	// Output, when non-nil, receives the subject's authorized view as
	// streamed XML while the shared scan runs (the streaming delivery of
	// StreamAuthorizedViewCompiled). When nil the view is materialized into
	// ViewResult.View (the AuthorizedViewCompiled behaviour).
	Output io.Writer
}

// ViewResult is the per-subject outcome of a shared scan, in AddSubject
// order. A subject whose delivery failed (its Output stopped accepting
// bytes) carries the error here; the other subjects' views are unaffected.
type ViewResult struct {
	// View is the materialized view for requests without an Output writer,
	// non-nil like AuthorizedViewCompiled's (View.IsEmpty reports an empty
	// authorized view); nil when the view was streamed to Output.
	View *Document
	// Metrics describes the evaluation. The per-subject counters
	// (NodesPermitted, NodesDenied, NodesPending, SubtreesSkipped) are
	// identical to a solo evaluation of the same policy; the shared-cost
	// fields (BytesTransferred, BytesDecrypted, BytesSkipped and the derived
	// EstimatedSmartCardSeconds) describe the one shared pass and are the
	// same for every subject — the whole point of sharing the scan.
	Metrics *Metrics
	// Err is the per-subject failure, if any: the subject's own delivery
	// failure, or the failure of the shared scan. Metrics then carries the
	// partial counters of the work performed.
	Err error
}

// AuthorizedViewsCompiled evaluates N compiled policies — one per subject —
// over a single decrypt/integrity-check/parse pass of the protected document:
// the shared-scan multicast path. Every subject gets its own automata,
// delivery sink and metrics; the expensive streaming pass (the dominant cost
// of the paper's model) is paid once instead of N times. The Skip index
// degrades to the union of the subjects' needed regions: a subtree is
// physically skipped only when every subject skips it, while per-subject
// accounting still reports what each solo scan would have skipped.
//
// Per-subject output is byte-identical to StreamAuthorizedViewCompiled (or
// AuthorizedViewCompiled when Output is nil) with the same policy and
// options, and the per-subject metric counters are identical; only the
// shared-cost fields differ. Those solo entry points are this scan with one
// view. One subject's failing writer removes only that subject from the
// scan. A failure of the scan itself (an integrity violation, truncated
// ciphertext) is returned as the error together with the results: every
// subject still in the scan carries it in ViewResult.Err, next to the
// partial Metrics of the work performed.
func (p *Protected) AuthorizedViewsCompiled(key Key, views []CompiledView) ([]ViewResult, error) {
	return runViews(p.snapshot(), key, views)
}
