package core

import (
	"errors"
	"fmt"

	"xmlac/internal/accessrule"
	"xmlac/internal/automaton"
	"xmlac/internal/trace"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// MetaProvider is implemented by event readers that carry Skip-index
// metadata (internal/skipindex). HasDescendantTag reports whether an element
// tag appears in the subtree rooted at the most recently opened element;
// known is false when the metadata is unavailable.
type MetaProvider interface {
	HasDescendantTag(name string) (has, known bool)
}

// Options tunes an evaluation run.
type Options struct {
	// Query restricts the delivered view to the scope of a query expressed
	// in the same XPath fragment as the rules (pull context).
	Query *xpath.Path
	// Sink, when non-nil, receives the authorized view as a stream of events
	// while the evaluation runs: this is the delivery model of the paper,
	// where the SOE hands authorized fragments to the terminal as soon as
	// their access decision settles. Events arrive in document order, opens
	// and closes balanced around a single root (or no events for an empty
	// view), and denied ancestors of authorized nodes are opened
	// structurally (named "_" under DummyDeniedNames). Nodes whose delivery
	// waits on a pending predicate are buffered and emitted when it
	// resolves, so the sink may see bursts; nothing emitted is retracted. A
	// write error aborts the run: it propagates out of Evaluator.Run, so a
	// sink backed by a disconnected client stops the document scan
	// mid-stream. Result.View is nil in that case. When Sink is nil the
	// evaluator materializes the view into an internal xmlstream.TreeBuilder
	// and returns it as Result.View.
	Sink xmlstream.EventWriter
	// DummyDeniedNames renders denied structural ancestors as "_".
	DummyDeniedNames bool
	// DisableSkipIndex ignores both Skip-index facets of the reader, its
	// descendant tags (MetaProvider) and its subtree jumps (Skipper): no
	// token filtering and no subtree skips, so a denied subtree is read
	// event by event (the brute-force strategy; ablation).
	DisableSkipIndex bool
	// DisableSubtreeDecisions disables the DecideSubtree/SkipSubtree logic
	// (Figures 5 and 6): every event is evaluated even inside subtrees whose
	// outcome is already known (ablation).
	DisableSubtreeDecisions bool
	// DisablePredicateShortCircuit disables the optimization that suspends a
	// predicate in a subtree once one of its instances evaluated to true
	// (section 3.3, first dynamic optimization; ablation).
	DisablePredicateShortCircuit bool
	// Trace, when non-nil, charges view delivery to PhaseEmit; the caller
	// charges the rest of the event loop (soe.Scan: to PhaseEval). Nil keeps
	// tracing off at the cost of one nil check per event.
	Trace *trace.Context
}

// Metrics reports what the evaluator did; the SOE cost model (internal/soe)
// converts them, together with the byte counts of the secure reader, into
// execution-time estimates.
type Metrics struct {
	Events          int64 // total events processed (skipped events excluded)
	TokenOps        int64 // tokens examined across all events
	NodesPermitted  int64
	NodesDenied     int64
	NodesPending    int64 // nodes buffered awaiting a pending predicate
	SubtreesSkipped int64
	BytesSkipped    int64
}

// Result is the outcome of an evaluation.
type Result struct {
	// View is the authorized view (restricted to the query scope when a
	// query was supplied); nil when empty.
	View *xmlstream.Node
	// Metrics describes the work performed.
	Metrics Metrics
}

// compiledRule is one rule (or the query) compiled to its ARA.
type compiledRule struct {
	id      string
	sign    accessrule.Sign
	isQuery bool
	ara     *automaton.ARA
}

// Evaluator is the streaming access-control evaluator. It is not safe for
// concurrent use; create one per (document, policy, query) evaluation.
type Evaluator struct {
	rules    []compiledRule
	hasQuery bool
	opts     Options

	reader  xmlstream.EventReader
	meta    MetaProvider
	skipper xmlstream.Skipper

	// tokenStack[d] holds the tokens that can fire on events at depth d+1;
	// tokenStack[0] is the initial token set. Levels are filtered in place
	// and their arrays reused once popped (spareTokenLevel).
	tokenStack [][]automaton.Token
	// authLevels[d-1] is the Authorization Stack level created at depth d.
	authLevels []*authLevel
	// serials[d-1] is the serial number of the open element at depth d.
	serials    []uint64
	nextSerial uint64

	predInstances map[predKey]*predInstance
	anchorIndex   map[uint64][]*predInstance

	builder *resultBuilder
	metrics Metrics

	// blanketPermitDepth > 0 means every event until the close of that depth
	// is delivered without evaluation (subtree-wide Permit, no active
	// token).
	blanketPermitDepth int
}

// Reset re-arms the evaluator for a fresh run over a new reader, reusing the
// allocated maps and stacks of the previous run and the result nodes it
// recycled, so an evaluator kept in a sync.Pool (soe.Scan's scan state) pays
// its allocations once per pooled instance, not once per view. The previous
// run's Result remains valid (finalize exports the view into fresh nodes).
func (e *Evaluator) Reset(reader xmlstream.EventReader, cp *CompiledPolicy, opts Options) {
	e.reader = reader
	e.opts = opts
	e.meta = nil
	e.skipper = nil
	e.metrics = Metrics{}
	e.blanketPermitDepth = 0
	e.nextSerial = 0
	e.serials = e.serials[:0]
	e.authLevels = e.authLevels[:0]

	// The rule table copies the (small) compiledRule headers into
	// evaluator-owned storage so that appending the per-run query automaton
	// never mutates the shared compiled policy; the ARAs themselves are
	// shared and immutable.
	if cap(e.rules) < len(cp.rules)+1 {
		e.rules = make([]compiledRule, 0, len(cp.rules)+1)
	}
	e.rules = append(e.rules[:0], cp.rules...)
	e.hasQuery = false
	if opts.Query != nil {
		e.hasQuery = true
		e.rules = append(e.rules, compiledRule{
			id:      "query",
			sign:    accessrule.Permit,
			isQuery: true,
			ara:     automaton.Compile("query", opts.Query),
		})
	}

	if e.predInstances == nil {
		e.predInstances = map[predKey]*predInstance{}
	} else {
		clear(e.predInstances)
	}
	if e.anchorIndex == nil {
		e.anchorIndex = map[uint64][]*predInstance{}
	} else {
		clear(e.anchorIndex)
	}
	if e.builder == nil {
		e.builder = &resultBuilder{}
	}
	e.builder.reset(opts.Sink, opts.DummyDeniedNames)

	if !opts.DisableSkipIndex {
		e.meta, _ = reader.(MetaProvider)
		e.skipper, _ = reader.(xmlstream.Skipper)
	}
	// Initial token level: one navigational token per rule at state 0.
	var initial []automaton.Token
	if len(e.tokenStack) > 0 {
		initial = e.tokenStack[0][:0]
	}
	if cap(initial) < len(e.rules) {
		initial = make([]automaton.Token, 0, len(e.rules))
	}
	for i := range e.rules {
		initial = append(initial, automaton.Token{Rule: i, Path: automaton.NavPath, State: 0})
	}
	e.tokenStack = append(e.tokenStack[:0], initial)
}

// Evaluate runs a full evaluation: it drives the reader to the end of the
// document and returns the authorized view and the metrics.
func Evaluate(reader xmlstream.EventReader, policy *accessrule.Policy, opts Options) (*Result, error) {
	e := &Evaluator{}
	e.Reset(reader, CompilePolicy(policy), opts)
	return e.Run()
}

// Run processes every event of the reader and finalizes the result. With a
// delivery sink configured (Options.Sink) the view has already been streamed
// out by the time Run returns and Result.View is nil. Every failure — the
// reader's, the sink's, or one at finalization — returns the error with a
// Result carrying the partial metrics of the work performed and no view.
func (e *Evaluator) Run() (*Result, error) {
	for {
		ev, err := e.reader.Next()
		if errors.Is(err, xmlstream.ErrEndOfDocument) {
			return e.finish()
		}
		if err != nil {
			return &Result{Metrics: e.metrics}, fmt.Errorf("core: reading document: %w", err)
		}
		if err := e.processEvent(ev); err != nil {
			return &Result{Metrics: e.metrics}, err
		}
	}
}

// finish finalizes the result after the last event has been processed: the
// remaining skeleton is flushed and unresolved predicates deny their
// nodes. A failure returns the error with the metrics and no view.
func (e *Evaluator) finish() (*Result, error) {
	defer e.opts.Trace.Enter(e.opts.Trace.Enter(trace.PhaseEmit))
	view, err := e.builder.finalize()
	return &Result{View: view, Metrics: e.metrics}, err
}

// processEvent feeds one event to the evaluator. After the event is
// evaluated the settled prefix of the view is flushed to the delivery sink,
// so a sink error (a disconnected client) surfaces here and aborts the
// document scan.
func (e *Evaluator) processEvent(ev xmlstream.Event) error {
	e.metrics.Events++
	var err error
	switch ev.Kind {
	case xmlstream.Open:
		err = e.processOpen(ev)
	case xmlstream.Text:
		e.processText(ev)
	case xmlstream.Close:
		err = e.processClose(ev)
	default:
		err = fmt.Errorf("core: unknown event kind %v", ev.Kind)
	}
	if err != nil {
		return err
	}
	return e.flush()
}

// flush delivers the settled prefix of the view, charged to PhaseEmit.
func (e *Evaluator) flush() error {
	defer e.opts.Trace.Enter(e.opts.Trace.Enter(trace.PhaseEmit))
	return e.builder.flush()
}

var errDepthMismatch = errors.New("core: event depth does not match evaluator state")

func (e *Evaluator) processOpen(ev xmlstream.Event) error {
	depth := ev.Depth
	if depth != len(e.serials)+1 {
		return fmt.Errorf("%w: open %q at depth %d with %d open elements", errDepthMismatch, ev.Name, depth, len(e.serials))
	}
	e.nextSerial++
	serial := e.nextSerial
	e.serials = append(e.serials, serial)

	if e.blanketPermitDepth > 0 {
		// Whole-subtree Permit already decided: deliver without evaluation.
		e.tokenStack = append(e.tokenStack, e.spareTokenLevel())
		e.authLevels = append(e.authLevels, emptyLevel)
		e.builder.openElement(ev.Name, Permit, Permit, nil, e.hasQuery)
		e.metrics.NodesPermitted++
		return nil
	}

	top := e.tokenStack[len(e.tokenStack)-1]
	newLevel := e.spareTokenLevel()
	var newEntries []*authEntry
	// Query existence predicates satisfied by the element being opened are
	// collected here and gated on the element's access decision after it has
	// been computed (the query observes the authorized view only).
	var queryExistenceSats []predKey

	for _, t := range top {
		e.metrics.TokenOps++
		rule := e.rules[t.Rule]
		path := rule.ara.Path(t.Path)
		// Predicate short-circuit: once an instance is satisfied, its other
		// tokens are useless inside the anchor scope.
		if !t.Path.IsNav() && !e.opts.DisablePredicateShortCircuit {
			if inst, ok := e.predInstances[predKey{rule: t.Rule, pred: t.Path.Predicate, anchor: t.Instance}]; ok && inst.state == predSatisfied {
				continue
			}
		}
		if path.HasDescendantLoop(t.State) {
			newLevel = append(newLevel, t)
		}
		if !path.Accepts(t.State, ev.Name) {
			continue
		}
		nt := t
		nt.State++
		if t.Path.IsNav() {
			for _, predIdx := range rule.ara.PredicatesAnchoredAt(nt.State) {
				nt = nt.WithAnchor(predIdx, serial, len(rule.ara.Predicates))
				e.ensureInstance(predKey{rule: t.Rule, pred: predIdx, anchor: serial}, depth)
				newLevel = append(newLevel, automaton.Token{
					Rule:     t.Rule,
					Path:     automaton.PathID{Predicate: predIdx},
					State:    0,
					Instance: serial,
				})
			}
			if path.IsFinal(nt.State) {
				entry := &authEntry{rule: t.Rule, sign: rule.sign, query: rule.isQuery, depth: depth}
				for i, anchor := range nt.Anchors {
					if anchor == 0 {
						continue
					}
					if inst, ok := e.predInstances[predKey{rule: t.Rule, pred: i, anchor: anchor}]; ok {
						entry.preds = append(entry.preds, inst)
					}
				}
				newEntries = append(newEntries, entry)
			} else {
				newLevel = append(newLevel, nt)
			}
		} else {
			pp := rule.ara.Predicates[t.Path.Predicate]
			if pp.IsFinal(nt.State) {
				if pp.Compare == nil {
					// Existence predicate: satisfied as soon as a node
					// matching the predicate path exists. For the query the
					// satisfaction is deferred until the element's access
					// decision is known.
					key := predKey{rule: t.Rule, pred: t.Path.Predicate, anchor: t.Instance}
					if rule.isQuery {
						queryExistenceSats = append(queryExistenceSats, key)
					} else {
						e.satisfyInstance(key)
					}
				} else {
					// The comparison is evaluated on the text events of the
					// element just opened.
					newLevel = append(newLevel, nt)
				}
			} else {
				newLevel = append(newLevel, nt)
			}
		}
	}

	e.tokenStack = append(e.tokenStack, newLevel)
	level := emptyLevel
	if len(newEntries) > 0 {
		level = &authLevel{entries: newEntries}
	}
	e.authLevels = append(e.authLevels, level)

	// Skip-index token filtering (section 4.2): remove tokens that cannot
	// reach their final state inside this subtree.
	e.filterTokensWithIndex()

	// Node decision (Figure 4) combined with query coverage.
	ac := decideLevels(e.authLevels)
	qs := decideQuery(e.authLevels, e.hasQuery)
	combined := combine(ac, qs)
	node := e.builder.openElement(ev.Name, combined, ac, e.authLevels, e.hasQuery)
	switch combined {
	case Permit:
		e.metrics.NodesPermitted++
	case Deny:
		e.metrics.NodesDenied++
	default:
		e.metrics.NodesPending++
	}
	if combined == Pending || ac == Pending {
		// An element outside the query's scope waits too while its access
		// is pending: query observations deferred under it are released
		// when that access resolves.
		e.registerWaiters(node)
	}
	for _, key := range queryExistenceSats {
		e.gateQuerySatisfaction(key, node)
	}

	// Subtree-level decision and skip (Figures 5 and 6), triggered on the
	// open event.
	return e.maybeSuspendOrSkip(depth)
}

func (e *Evaluator) processText(ev xmlstream.Event) {
	if e.blanketPermitDepth > 0 {
		e.builder.text(ev.Value)
		return
	}
	top := e.tokenStack[len(e.tokenStack)-1]
	for _, t := range top {
		if t.Path.IsNav() {
			continue
		}
		rule := e.rules[t.Rule]
		pp := rule.ara.Predicates[t.Path.Predicate]
		if !pp.IsFinal(t.State) || pp.Compare == nil {
			continue
		}
		e.metrics.TokenOps++
		key := predKey{rule: t.Rule, pred: t.Path.Predicate, anchor: t.Instance}
		if !e.opts.DisablePredicateShortCircuit {
			if inst, ok := e.predInstances[key]; ok && inst.state == predSatisfied {
				continue
			}
		}
		if !pp.Compare.Evaluate(ev.Value) {
			continue
		}
		if rule.isQuery {
			// Query predicates observe the authorized view only: the value
			// counts when the enclosing element is access-permitted, is
			// deferred while its access decision is pending, and is ignored
			// when the element is denied.
			e.gateQuerySatisfaction(key, e.builder.current)
		} else {
			e.satisfyInstance(key)
		}
	}
	e.builder.text(ev.Value)
}

// gateQuerySatisfaction records a satisfying observation for a query
// predicate instance, subject to the access decision of the element carrying
// the observed value.
func (e *Evaluator) gateQuerySatisfaction(key predKey, node *resultNode) {
	inst, ok := e.predInstances[key]
	if !ok || inst.state != predUnknown || node == nil {
		return
	}
	switch node.access {
	case Permit:
		e.satisfyInstance(key)
	case Pending:
		inst.deferrals++
		node.deferredQuery = append(node.deferredQuery, key)
	case Deny:
		// The value is not part of the authorized view: ignore it.
	}
}

func (e *Evaluator) processClose(ev xmlstream.Event) error {
	depth := ev.Depth
	if depth != len(e.serials) {
		return fmt.Errorf("%w: close %q at depth %d with %d open elements", errDepthMismatch, ev.Name, depth, len(e.serials))
	}
	serial := e.serials[len(e.serials)-1]

	// Expire the predicate instances anchored at the closing element:
	// unresolved instances definitively fail and the nodes waiting on them
	// are released (section 5: a predicate unresolved when its scope closes
	// can no longer condition any delivery). Query instances with deferred
	// observations stay open: their fate depends on access decisions that
	// have not resolved yet.
	for _, inst := range e.anchorIndex[serial] {
		inst.anchorClosed = true
		if inst.state != predUnknown {
			continue
		}
		if inst.deferrals > 0 {
			continue
		}
		inst.state = predFailed
		e.notifyWaiters(inst)
	}
	delete(e.anchorIndex, serial)

	e.builder.closeElement()
	e.serials = e.serials[:len(e.serials)-1]
	e.tokenStack = e.tokenStack[:len(e.tokenStack)-1]
	e.authLevels = e.authLevels[:len(e.authLevels)-1]

	if e.blanketPermitDepth > 0 {
		if depth == e.blanketPermitDepth {
			e.blanketPermitDepth = 0
		}
		return nil
	}
	// Subtree decision triggered on the close event as well ("this
	// algorithm should be triggered both on open and close events",
	// section 4.2): closing a child may allow skipping the rest of the
	// parent.
	if depth-1 >= 1 {
		return e.maybeSuspendOrSkip(depth - 1)
	}
	return nil
}

// ensureInstance creates (or returns) the predicate instance for a key.
func (e *Evaluator) ensureInstance(key predKey, depth int) *predInstance {
	if inst, ok := e.predInstances[key]; ok {
		return inst
	}
	inst := &predInstance{key: key, depth: depth}
	e.predInstances[key] = inst
	e.anchorIndex[key.anchor] = append(e.anchorIndex[key.anchor], inst)
	return inst
}

// satisfyInstance marks a predicate instance satisfied and re-evaluates the
// buffered nodes waiting on it.
func (e *Evaluator) satisfyInstance(key predKey) {
	inst, ok := e.predInstances[key]
	if !ok || inst.state != predUnknown {
		return
	}
	inst.state = predSatisfied
	e.notifyWaiters(inst)
}

// registerWaiters subscribes a buffered node to every unresolved predicate
// instance of its snapshot.
func (e *Evaluator) registerWaiters(node *resultNode) {
	for _, lvl := range node.snapshot {
		for _, entry := range lvl.entries {
			for _, inst := range entry.preds {
				if !inst.resolved() {
					inst.waiters = append(inst.waiters, waiter{node: node, gen: node.gen})
				}
			}
		}
	}
}

// notifyWaiters re-evaluates the delivery condition of every node waiting on
// the instance. A registration whose node has been recycled since is
// skipped.
func (e *Evaluator) notifyWaiters(inst *predInstance) {
	waiters := inst.waiters
	inst.waiters = nil
	for _, w := range waiters {
		node := w.node
		if node.gen != w.gen || (node.state != stateUndecided && node.access != Pending) {
			continue
		}
		ac := decideLevels(node.snapshot)
		qs := decideQuery(node.snapshot, node.hasQuery)
		combined := combine(ac, qs)
		if node.access == Pending && ac != Pending {
			// Access decision resolved: release the query-predicate
			// observations deferred under this element.
			node.access = ac
			e.resolveDeferrals(node)
		}
		if combined == Pending {
			// Still pending on other instances; it stays registered with
			// them (registration happened for every unresolved instance).
			continue
		}
		e.builder.resolve(node, combined)
	}
}

// resolveDeferrals propagates the access resolution of an element to the
// query predicate instances whose satisfying values were observed under it.
func (e *Evaluator) resolveDeferrals(node *resultNode) {
	keys := node.deferredQuery
	node.deferredQuery = nil
	for _, key := range keys {
		inst, ok := e.predInstances[key]
		if !ok {
			continue
		}
		inst.deferrals--
		if inst.state != predUnknown {
			continue
		}
		switch {
		case node.access == Permit:
			inst.state = predSatisfied
			e.notifyWaiters(inst)
		case inst.deferrals == 0 && inst.anchorClosed:
			// Every potential observation turned out to be denied and the
			// anchor scope is over: the query predicate definitively fails.
			inst.state = predFailed
			e.notifyWaiters(inst)
		}
	}
}

// spareTokenLevel returns an empty token level for the next depth, backed by
// the array that depth used last, so opening an element reuses the Token
// Stack's storage instead of allocating a level. Each depth owns its array,
// so levels never alias one another.
func (e *Evaluator) spareTokenLevel() []automaton.Token {
	if n := len(e.tokenStack); n < cap(e.tokenStack) {
		return e.tokenStack[:n+1][n][:0]
	}
	return nil
}

// filterTokensWithIndex applies the Skip-index RemainingLabels test: a token
// whose remaining labels are not all present in the descendant-tag set of
// the element just opened cannot reach a final state inside this subtree and
// is removed from the top of the Token Stack.
func (e *Evaluator) filterTokensWithIndex() {
	if e.meta == nil {
		return
	}
	top := e.tokenStack[len(e.tokenStack)-1]
	kept := top[:0]
	for _, t := range top {
		path := e.rules[t.Rule].ara.Path(t.Path)
		labels, constrained := path.RemainingLabels(t.State)
		if !constrained {
			kept = append(kept, t)
			continue
		}
		reachable := true
		for l := range labels {
			has, known := e.meta.HasDescendantTag(l)
			if !known {
				// No metadata for this element. Every query about it
				// answers alike, so this is the first one and no token
				// has been dropped yet.
				return
			}
			if !has {
				reachable = false
				break
			}
		}
		if reachable {
			kept = append(kept, t)
		}
	}
	e.tokenStack[len(e.tokenStack)-1] = kept
}

// maybeSuspendOrSkip implements DecideSubtree (Figure 5) and SkipSubtree
// (Figure 6): when a decision holds for the whole subtree rooted at the
// element currently open at the given depth, the evaluation of navigational
// tokens is suspended; if the decision is Deny and no token remains active,
// the rest of the subtree is skipped (saving communication and decryption);
// if the decision is Permit and no token remains, the subtree is delivered
// without further evaluation.
func (e *Evaluator) maybeSuspendOrSkip(depth int) error {
	if e.opts.DisableSubtreeDecisions || e.blanketPermitDepth > 0 {
		return nil
	}
	ac := decideLevels(e.authLevels)
	qs := decideQuery(e.authLevels, e.hasQuery)
	combined := combine(ac, qs)
	if combined == Pending {
		return nil
	}
	top := e.tokenStack[len(e.tokenStack)-1]
	// Could any token still alter the outcome for nodes deeper in this
	// subtree?
	for _, t := range top {
		if !t.Path.IsNav() {
			continue
		}
		rule := e.rules[t.Rule]
		switch {
		case combined == Permit:
			// Only a more specific negative rule can overturn a Permit.
			if !rule.isQuery && rule.sign == accessrule.Deny {
				return nil
			}
		case ac == Deny:
			// Only a more specific positive rule can overturn a Deny.
			if !rule.isQuery && rule.sign == accessrule.Permit {
				return nil
			}
		default:
			// Denied because outside the query scope: a deeper query match
			// would change the outcome.
			if rule.isQuery {
				return nil
			}
		}
	}
	// Suspend every navigational token: they cannot change the outcome.
	ptOnly := top[:0]
	for _, t := range top {
		if !t.Path.IsNav() {
			ptOnly = append(ptOnly, t)
		}
	}
	e.tokenStack[len(e.tokenStack)-1] = ptOnly

	if len(ptOnly) > 0 {
		// Pending predicates elsewhere still need this subtree's content.
		return nil
	}
	if combined == Deny {
		if e.skipper != nil {
			skipped, err := e.skipper.SkipToClose(depth)
			if err != nil {
				return fmt.Errorf("core: skipping denied subtree: %w", err)
			}
			e.metrics.SubtreesSkipped++
			e.metrics.BytesSkipped += skipped
		}
		return nil
	}
	// combined == Permit: deliver the rest of the subtree without
	// evaluation.
	e.blanketPermitDepth = depth
	return nil
}
