package core

import (
	"errors"
	"fmt"

	"xmlac/internal/xmlstream"
)

// The result builder plays the role of the untrusted terminal in the target
// architecture: it buffers the pending parts of the document (the paper
// assumes "the terminal has enough memory to buffer the pending parts" or
// can read them back from the server), reassembles them at the right place
// when their delivery condition resolves (section 5), enforces the
// Structural rule (ancestors of authorized nodes are kept, optionally with
// dummied names) and delivers the authorized view.
//
// Delivery is streaming: the builder writes open/text/close events to its
// sink as soon as their fate is sealed, in document order. A node whose
// delivery condition is still pending blocks the emission cursor (later
// output would otherwise overtake it); everything before the first pending
// node flows out while the evaluation is still consuming the document, so
// time-to-first-byte and peak buffered memory track the evaluator's working
// set, not the view size.
//
// Memory discipline: the SOE-side state of the evaluator is bounded by the
// document depth and the number of active tokens; everything kept here is
// terminal-side memory. Emitted nodes are dropped from the skeleton as the
// cursor passes them, and subtrees whose decision is a definitive Deny are
// dropped as soon as their element closes, so the terminal retains only the
// still-pending fragments and the open path.

// nodeState tracks the delivery state of one buffered element or text node.
type nodeState int

const (
	// stateUndecided: delivery depends on pending predicates.
	stateUndecided nodeState = iota
	// stateIncluded: the node belongs to the authorized view (with its
	// text).
	stateIncluded
	// stateExcluded: the node itself is denied; it may still appear without
	// text as a structural ancestor of an included descendant.
	stateExcluded
)

// resultNode is one element or text node of the result skeleton.
type resultNode struct {
	isText bool
	name   string
	value  string
	state  nodeState

	parent   *resultNode
	children []*resultNode

	// next indexes the first child the emission cursor has not settled yet;
	// settled children are nilled out to release their subtree.
	next int
	// opened records that the sink received this element's opening tag
	// (directly, or structurally as a denied ancestor of a delivered node);
	// emittedName is the name it was opened under (dummied for non-included
	// elements when the dummy-name rendering is on), reused by the closing
	// tag.
	opened      bool
	emittedName string
	// inputClosed records that the document-side close event was seen, so
	// the cursor knows no further children can arrive.
	inputClosed bool
	// done marks a fully settled node (all output emitted or dropped).
	done bool

	// access is the access-control decision for the element independent of
	// the query (the query result is computed over the authorized view, so
	// query predicates may only observe values whose access decision is
	// Permit). It starts equal to the streaming decision and is refined when
	// pending predicates resolve.
	access Decision

	// deferredQuery lists query predicate instances whose satisfaction was
	// observed under this element while its access decision was still
	// pending; they are satisfied if and when the element becomes
	// access-permitted.
	deferredQuery []predKey

	// For element nodes that are undecided or whose access is pending: the
	// Authorization Stack levels (including query entries) governing the
	// node, copied at open time and re-evaluated when one of the pending
	// instances it waits on resolves.
	snapshot []*authLevel
	hasQuery bool

	// gen counts the node's recycles. A waiter registration records it, so
	// a registration that outlives the node (the node was settled and
	// recycled) is recognized as stale instead of re-evaluating the node's
	// next occupant.
	gen uint32
}

// ErrUnbalancedResult is returned when Finalize is called while elements are
// still open.
var ErrUnbalancedResult = errors.New("core: unbalanced result (document not fully processed)")

// resultBuilder accumulates the result skeleton during parsing and streams
// the settled prefix into its sink.
type resultBuilder struct {
	root    *resultNode
	current *resultNode
	// sink receives the delivered view; tree is non-nil when the builder
	// materializes (the sink is an internally owned TreeBuilder whose root
	// is returned by finalize).
	sink xmlstream.EventWriter
	tree *xmlstream.TreeBuilder
	err  error
	// dummyNames controls the Structural-rule rendering of denied ancestors.
	dummyNames bool
	// openStack mirrors the currently open elements.
	openStack []*resultNode
	// pendingCount tracks how many nodes are still undecided, to detect
	// internal accounting bugs at Finalize time.
	pendingCount int

	// free holds settled nodes for reuse, so a run allocates nodes only up
	// to the size of the skeleton it buffers at once. It survives reset.
	free []*resultNode
}

// reset re-arms the builder for a run delivering into sink; a nil sink
// materializes the view into a tree returned by finalize, through a
// TreeBuilder, so the materialized path is the same streaming emission.
// The node free list and the open stack are kept.
func (b *resultBuilder) reset(sink xmlstream.EventWriter, dummyNames bool) {
	var tree *xmlstream.TreeBuilder
	if sink == nil {
		tree = xmlstream.NewTreeBuilder()
		sink = tree
	}
	clear(b.openStack)
	*b = resultBuilder{
		sink:       sink,
		tree:       tree,
		dummyNames: dummyNames,
		openStack:  b.openStack[:0],
		free:       b.free,
	}
}

// newNode returns a zeroed node, recycled when one is free.
func (b *resultBuilder) newNode() *resultNode {
	if len(b.free) == 0 {
		return &resultNode{}
	}
	n := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	return n
}

// recycle returns a settled node, no longer reachable from the skeleton, to
// the free list. Its children, snapshot and deferred keys keep their
// capacity, and its generation moves on, which makes its waiter
// registrations stale. A node whose access is still pending and which holds
// deferred query observations stays out of the free list: the evaluator
// releases those observations when the access resolves.
func (b *resultBuilder) recycle(n *resultNode) {
	if n.access == Pending && len(n.deferredQuery) > 0 {
		return
	}
	clear(n.children)
	n.dropSnapshot()
	*n = resultNode{
		children:      n.children[:0],
		snapshot:      n.snapshot,
		deferredQuery: n.deferredQuery[:0],
		gen:           n.gen + 1,
	}
	b.free = append(b.free, n)
}

// dropSnapshot empties the node's snapshot, keeping its capacity.
func (n *resultNode) dropSnapshot() {
	clear(n.snapshot)
	n.snapshot = n.snapshot[:0]
}

// openElement records an element with its (possibly pending) delivery
// decision d and access-control decision access, and returns the created
// node so the evaluator can register it as a waiter on unresolved predicate
// instances. While either decision is pending the node keeps its own copy of
// the Authorization Stack levels.
func (b *resultBuilder) openElement(name string, d, access Decision, levels []*authLevel, hasQuery bool) *resultNode {
	n := b.newNode()
	n.name, n.parent, n.access = name, b.current, access
	if d == Pending || access == Pending {
		n.snapshot = append(n.snapshot, levels...)
		n.hasQuery = hasQuery
	}
	switch d {
	case Permit:
		n.state = stateIncluded
	case Deny:
		n.state = stateExcluded
	default:
		n.state = stateUndecided
		b.pendingCount++
	}
	if b.current == nil {
		b.root = n
	} else {
		b.current.children = append(b.current.children, n)
	}
	b.current = n
	b.openStack = append(b.openStack, n)
	return n
}

// text records a text node under the current element. Its delivery follows
// the enclosing element's decision, so it simply inherits the parent state
// (text of an undecided element is resolved together with it). Text of a
// definitively excluded element is never delivered — not even structurally —
// so it is dropped on the spot.
func (b *resultBuilder) text(value string) {
	if b.current == nil || b.current.state == stateExcluded {
		return
	}
	n := b.newNode()
	n.isText, n.value, n.parent, n.state = true, value, b.current, b.current.state
	b.current.children = append(b.current.children, n)
}

// closeElement closes the current element. Subtrees that are definitively
// excluded, un-emitted and without included or undecided descendants are
// dropped immediately to bound terminal memory, without waiting for the
// emission cursor to reach them.
func (b *resultBuilder) closeElement() {
	if len(b.openStack) == 0 {
		return
	}
	n := b.openStack[len(b.openStack)-1]
	b.openStack = b.openStack[:len(b.openStack)-1]
	n.inputClosed = true
	if len(b.openStack) > 0 {
		b.current = b.openStack[len(b.openStack)-1]
	} else {
		b.current = nil
	}
	if n.parent != nil && n.state == stateExcluded && !n.opened && !hasLiveDescendant(n) {
		// Drop: this subtree can never contribute output. The slot is nilled
		// (not spliced) so the parent's emission index stays valid; the
		// closing element is always the parent's most recent child.
		n.parent.children[len(n.parent.children)-1] = nil
		b.recycleTree(n)
	}
}

// recycleTree recycles a dropped subtree, bottom up. Slots are nilled as
// their nodes go, so a node that recycle keeps out of the free list points
// at none of them.
func (b *resultBuilder) recycleTree(n *resultNode) {
	for i, c := range n.children {
		if c != nil {
			b.recycleTree(c)
			n.children[i] = nil
		}
	}
	b.recycle(n)
}

// hasLiveDescendant reports whether any descendant (or the node itself) is
// included or still undecided.
func hasLiveDescendant(n *resultNode) bool {
	if n.state == stateIncluded || n.state == stateUndecided {
		return true
	}
	for _, c := range n.children {
		if c != nil && hasLiveDescendant(c) {
			return true
		}
	}
	return false
}

// resolve seals an undecided element node with its re-evaluated delivery
// decision d after one of its pending predicate instances resolved. A node
// already decided, or a d still Pending, leaves the node as it is.
func (b *resultBuilder) resolve(n *resultNode, d Decision) {
	if n.state != stateUndecided {
		return
	}
	switch d {
	case Permit:
		n.state = stateIncluded
	case Deny:
		n.state = stateExcluded
	default:
		return
	}
	b.pendingCount--
	// Text children inherited the undecided state; align them.
	for _, c := range n.children {
		if c != nil && c.isText && c.state == stateUndecided {
			c.state = n.state
		}
	}
	if n.access != Pending {
		n.dropSnapshot()
	}
}

// flush advances the emission cursor: every node whose fate is sealed and
// whose document-order predecessors have all been emitted or dropped is
// pushed into the sink and released from the skeleton. The evaluator calls
// it after each processed event; a sink error is sticky and aborts the run.
func (b *resultBuilder) flush() error {
	if b.err != nil {
		return b.err
	}
	if b.root == nil {
		return nil
	}
	b.settle(b.root)
	return b.err
}

// settle tries to emit the remaining output of n. It returns true when the
// node is fully done (everything emitted or dropped, including the closing
// tag); false when it is blocked on a pending decision, on children still
// being parsed, or on a sink error.
func (b *resultBuilder) settle(n *resultNode) bool {
	if n.done {
		return true
	}
	if b.err != nil {
		return false
	}
	if n.isText {
		switch n.state {
		case stateIncluded:
			b.emit(xmlstream.Event{Kind: xmlstream.Text, Value: n.value})
			n.done = b.err == nil
			return n.done
		case stateExcluded:
			n.done = true
			return true
		default:
			return false
		}
	}
	if n.state == stateUndecided {
		return false
	}
	if n.state == stateIncluded && !n.opened {
		b.emitOpenPath(n)
		if b.err != nil {
			return false
		}
	}
	for n.next < len(n.children) {
		c := n.children[n.next]
		if c == nil {
			n.next++
			continue
		}
		if c.isText && n.state != stateIncluded {
			// Text of a non-included element is never delivered, even when
			// the element appears structurally.
			if c.state == stateUndecided {
				return false
			}
			n.children[n.next] = nil
			n.next++
			b.recycle(c)
			continue
		}
		if !b.settle(c) {
			return false
		}
		n.children[n.next] = nil
		n.next++
		b.recycle(c)
	}
	if n.next > 0 && n.next == len(n.children) {
		// Every child so far is settled: recycle the slice so a long-open
		// element (a wide root) does not accumulate one nil slot per child
		// ever seen. New children append from index 0 again.
		n.children = n.children[:0]
		n.next = 0
	}
	if !n.inputClosed {
		return false
	}
	if n.opened {
		b.emit(xmlstream.Event{Kind: xmlstream.Close, Name: n.emittedName})
		if b.err != nil {
			return false
		}
	}
	// Never opened: an excluded subtree with no included descendant, dropped
	// whole.
	n.done = true
	return true
}

// emitOpenPath emits the opening tags of every not-yet-opened ancestor of n
// (all of which are excluded structural ancestors — included ancestors were
// opened when the cursor passed them) and of n itself, applying the
// Structural rule's dummy-name rendering to non-included elements.
func (b *resultBuilder) emitOpenPath(n *resultNode) {
	if n == nil || n.opened || b.err != nil {
		return
	}
	b.emitOpenPath(n.parent)
	if b.err != nil {
		return
	}
	name := n.name
	if n.state != stateIncluded && b.dummyNames {
		name = "_"
	}
	b.emit(xmlstream.Event{Kind: xmlstream.Open, Name: name})
	if b.err != nil {
		return
	}
	n.opened = true
	n.emittedName = name
}

// emit writes one event to the sink; a write error is sticky and aborts
// the run.
func (b *resultBuilder) emit(ev xmlstream.Event) {
	if err := b.sink.WriteEvent(ev); err != nil {
		b.err = fmt.Errorf("core: delivering view: %w", err)
	}
}

// finalize flushes the remaining skeleton. Any node still undecided is
// treated as denied (its predicates never resolved before the end of the
// document, which means they are false). When the builder materializes,
// the collected view tree is returned; it is nil when the view is empty.
func (b *resultBuilder) finalize() (*xmlstream.Node, error) {
	if len(b.openStack) != 0 {
		return nil, ErrUnbalancedResult
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.root == nil {
		return nil, nil
	}
	denyUnresolved(b.root)
	if !b.settle(b.root) && b.err == nil {
		b.err = errors.New("core: internal error: view emission stalled at end of document")
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.tree == nil || !b.root.opened {
		return nil, nil
	}
	return b.tree.Root()
}

// denyUnresolved seals the fate of every node still undecided at the end of
// the document: unresolved predicates are false, so the node is excluded.
func denyUnresolved(n *resultNode) {
	if n.state == stateUndecided {
		n.state = stateExcluded
		n.dropSnapshot()
	}
	for i := n.next; i < len(n.children); i++ {
		c := n.children[i]
		if c == nil {
			continue
		}
		if c.isText {
			if c.state == stateUndecided {
				c.state = stateExcluded
			}
			continue
		}
		denyUnresolved(c)
	}
}
