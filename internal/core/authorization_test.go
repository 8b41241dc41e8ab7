package core

import (
	"testing"

	"xmlac/internal/accessrule"
)

// Direct unit tests of the conflict-resolution algorithm (Figure 4) over
// hand-built Authorization Stack snapshots, independent of any document.

func instance(state predState) *predInstance {
	return &predInstance{state: state}
}

func entry(sign accessrule.Sign, preds ...*predInstance) *authEntry {
	return &authEntry{sign: sign, preds: preds}
}

func queryEntry(preds ...*predInstance) *authEntry {
	return &authEntry{sign: accessrule.Permit, query: true, preds: preds}
}

func level(entries ...*authEntry) *authLevel { return &authLevel{entries: entries} }

func TestEntryStatus(t *testing.T) {
	cases := []struct {
		name string
		e    *authEntry
		want entryStatus
	}{
		{"positive no predicates", entry(accessrule.Permit), statusPositiveActive},
		{"negative no predicates", entry(accessrule.Deny), statusNegativeActive},
		{"positive pending", entry(accessrule.Permit, instance(predUnknown)), statusPositivePending},
		{"negative pending", entry(accessrule.Deny, instance(predUnknown)), statusNegativePending},
		{"positive satisfied", entry(accessrule.Permit, instance(predSatisfied)), statusPositiveActive},
		{"negative satisfied", entry(accessrule.Deny, instance(predSatisfied)), statusNegativeActive},
		{"failed predicate voids", entry(accessrule.Permit, instance(predFailed)), statusVoid},
		{"one failed among satisfied voids", entry(accessrule.Deny, instance(predSatisfied), instance(predFailed)), statusVoid},
		{"mixed unknown and satisfied stays pending", entry(accessrule.Permit, instance(predSatisfied), instance(predUnknown)), statusPositivePending},
	}
	for _, c := range cases {
		if got := c.e.status(); got != c.want {
			t.Errorf("%s: status = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDecideLevelsFigure4(t *testing.T) {
	pos := entry(accessrule.Permit)
	neg := entry(accessrule.Deny)
	posPending := entry(accessrule.Permit, instance(predUnknown))
	negPending := entry(accessrule.Deny, instance(predUnknown))
	void := entry(accessrule.Permit, instance(predFailed))

	cases := []struct {
		name   string
		levels []*authLevel
		want   Decision
	}{
		{"empty stack denies (closed policy)", nil, Deny},
		{"single positive permits", []*authLevel{level(pos)}, Permit},
		{"single negative denies", []*authLevel{level(neg)}, Deny},
		{"denial takes precedence at the same level", []*authLevel{level(pos, neg)}, Deny},
		{"most specific positive overrides outer negative", []*authLevel{level(neg), level(pos)}, Permit},
		{"most specific negative overrides outer positive", []*authLevel{level(pos), level(neg)}, Deny},
		{"empty level inherits", []*authLevel{level(pos), level()}, Permit},
		{"void level inherits", []*authLevel{level(neg), level(void)}, Deny},
		{"positive pending alone is pending", []*authLevel{level(posPending)}, Pending},
		{"negative pending alone is pending over closed policy", []*authLevel{level(negPending)}, Deny},
		{"positive active with negative pending at same level is pending", []*authLevel{level(pos, negPending)}, Pending},
		{"positive active above negative pending wins", []*authLevel{level(negPending), level(pos)}, Permit},
		{"negative pending above outer permit is pending", []*authLevel{level(pos), level(negPending)}, Pending},
		{"positive pending above outer deny is pending", []*authLevel{level(neg), level(posPending)}, Pending},
		{"positive pending above outer permit still permits", []*authLevel{level(pos), level(posPending)}, Permit},
		{"negative pending above outer deny still denies", []*authLevel{level(neg), level(negPending)}, Deny},
		{"negative active at top trumps everything", []*authLevel{level(pos), level(posPending), level(neg)}, Deny},
	}
	for _, c := range cases {
		if got := decideLevels(c.levels); got != c.want {
			t.Errorf("%s: decideLevels = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDecideQueryAndCombine(t *testing.T) {
	qActive := queryEntry()
	qPending := queryEntry(instance(predUnknown))
	if got := decideQuery([]*authLevel{level(qActive)}, false); got != queryNone {
		t.Errorf("no query configured: got %v", got)
	}
	if got := decideQuery([]*authLevel{level(entry(accessrule.Permit))}, true); got != queryOutside {
		t.Errorf("no query entry: got %v", got)
	}
	if got := decideQuery([]*authLevel{level(qPending)}, true); got != queryPending {
		t.Errorf("pending query: got %v", got)
	}
	if got := decideQuery([]*authLevel{level(qPending), level(qActive)}, true); got != queryCovered {
		t.Errorf("active query: got %v", got)
	}

	combineCases := []struct {
		ac   Decision
		qs   queryStatus
		want Decision
	}{
		{Deny, queryCovered, Deny},
		{Permit, queryNone, Permit},
		{Permit, queryCovered, Permit},
		{Permit, queryOutside, Deny},
		{Permit, queryPending, Pending},
		{Pending, queryCovered, Pending},
		{Pending, queryOutside, Deny},
		{Pending, queryNone, Pending},
	}
	for _, c := range combineCases {
		if got := combine(c.ac, c.qs); got != c.want {
			t.Errorf("combine(%v,%v) = %v, want %v", c.ac, c.qs, got, c.want)
		}
	}
}

// newTreeBuilder returns a builder that materializes its view.
func newTreeBuilder() *resultBuilder {
	b := &resultBuilder{}
	b.reset(nil, false)
	return b
}

func TestResultBuilderStructuralRule(t *testing.T) {
	b := newTreeBuilder()
	b.openElement("root", Deny, Deny, nil, false)
	b.openElement("secret", Deny, Deny, nil, false)
	b.openElement("leaf", Permit, Permit, nil, false)
	b.text("payload")
	b.closeElement()
	b.closeElement()
	b.openElement("dropped", Deny, Deny, nil, false)
	b.text("never delivered")
	b.closeElement()
	b.closeElement()
	view, err := b.finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := serialize(view)
	if s != "<root><secret><leaf>payload</leaf></secret></root>" {
		t.Fatalf("structural rule output wrong: %s", s)
	}
}

func TestResultBuilderPendingResolution(t *testing.T) {
	b := newTreeBuilder()
	b.openElement("root", Deny, Deny, nil, false)
	n := b.openElement("maybe", Pending, Pending, nil, false)
	b.text("value")
	b.closeElement()
	b.closeElement()
	if b.pendingCount != 1 {
		t.Fatalf("pendingCount = %d", b.pendingCount)
	}
	b.resolve(n, Permit)
	if n.state != stateIncluded || b.pendingCount != 0 {
		t.Fatalf("resolve(Permit): state %v, pendingCount %d", n.state, b.pendingCount)
	}
	// Resolving a decided node again is a no-op.
	b.resolve(n, Deny)
	if n.state != stateIncluded || b.pendingCount != 0 {
		t.Fatalf("second resolve changed a decided node: state %v, pendingCount %d", n.state, b.pendingCount)
	}
	view, err := b.finalize()
	if err != nil {
		t.Fatal(err)
	}
	if serialize(view) != "<root><maybe>value</maybe></root>" {
		t.Fatalf("resolved pending output wrong: %s", serialize(view))
	}
}

func TestResultBuilderPendingDefaultsToDeny(t *testing.T) {
	b := newTreeBuilder()
	b.openElement("root", Permit, Permit, nil, false)
	b.openElement("maybe", Pending, Pending, nil, false)
	b.text("hidden")
	b.closeElement()
	b.closeElement()
	view, err := b.finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := serialize(view)
	if s != "<root></root>" {
		t.Fatalf("unresolved pending must not be delivered: %s", s)
	}
}

func TestResultBuilderUnbalanced(t *testing.T) {
	b := newTreeBuilder()
	b.openElement("root", Permit, Permit, nil, false)
	if _, err := b.finalize(); err == nil {
		t.Fatal("unbalanced result must fail")
	}
}
