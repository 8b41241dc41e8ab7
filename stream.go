package xmlac

import "io"

// Streaming view delivery: the paper's SOE evaluates access control in
// streaming with bounded memory, delivering the authorized view as it is
// produced. These entry points expose that property: instead of
// materializing a *Document tree and serializing it afterwards, the
// evaluator writes textual XML to w while it is still scanning the encrypted
// document, so peak memory and time-to-first-byte track the evaluator's
// working set (open path plus pending predicates), not the view size.
//
// The output is byte-identical to AuthorizedView(...).XML() (or
// IndentedXML() with ViewOptions.Indent) and the SOE metrics are identical;
// Metrics.TimeToFirstByte additionally reports when the first byte reached
// w. A write error from w aborts the evaluation mid-document — a server
// streaming to a disconnected client stops paying for the rest of the scan.

// StreamAuthorizedView evaluates the policy (and optional query) over the
// protected document and streams the authorized view to w as it is produced.
// It compiles the policy on every call; callers evaluating the same policy
// repeatedly should compile it once and use StreamAuthorizedViewCompiled.
func (p *Protected) StreamAuthorizedView(key Key, policy Policy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, err
	}
	return p.StreamAuthorizedViewCompiled(key, compiled, opts, w)
}

// StreamAuthorizedViewCompiled is StreamAuthorizedView for a pre-compiled
// policy: the compile-once / evaluate-many streaming fast path.
func (p *Protected) StreamAuthorizedViewCompiled(key Key, cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	_, m, err := runView(p.snapshot(), key, cp, opts, w)
	return m, err
}

// StreamAuthorizedView evaluates the policy over the remote document and
// streams the authorized view to w: ciphertext is pulled through HTTP range
// requests on one side while authorized XML flows out on the other, so the
// client never holds the view (nor, thanks to the Skip index, the document)
// in memory.
func (d *RemoteDocument) StreamAuthorizedView(policy Policy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	compiled, err := policy.Compile()
	if err != nil {
		return nil, err
	}
	return d.StreamAuthorizedViewCompiled(compiled, opts, w)
}

// StreamAuthorizedViewCompiled is StreamAuthorizedView for a pre-compiled
// policy. The returned Metrics carry the wire counters of this evaluation on
// top of the usual SOE cost counters. Like AuthorizedViewCompiled it re-syncs
// and retries once when the server's document was updated — but only while
// nothing has been delivered to w yet; after the first byte the change
// surfaces as an error (a retried stream would duplicate output).
func (d *RemoteDocument) StreamAuthorizedViewCompiled(cp *CompiledPolicy, opts ViewOptions, w io.Writer) (*Metrics, error) {
	_, m, err := d.view(cp, opts, w)
	return m, err
}
