package core

import (
	"strings"
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// evaluate runs the streaming evaluator over an in-memory tree (without the
// Skip index) and returns the serialized view.
func evaluate(t *testing.T, doc *xmlstream.Node, policy *accessrule.Policy, opts Options) (*xmlstream.Node, Metrics) {
	t.Helper()
	res, err := Evaluate(xmlstream.NewTreeReader(doc), policy, opts)
	if err != nil {
		t.Fatalf("Evaluate failed: %v", err)
	}
	return res.View, res.Metrics
}

// mustSame asserts the streaming view equals the oracle view.
func mustSame(t *testing.T, doc *xmlstream.Node, policy *accessrule.Policy, query *xpath.Path) {
	t.Helper()
	opts := Options{Query: query}
	view, _ := evaluate(t, doc, policy, opts)
	oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{Query: query})
	if !treesEqual(view, oracle) {
		t.Fatalf("streaming view differs from oracle\npolicy: %s\nstreaming: %s\noracle:    %s",
			policy, serialize(view), serialize(oracle))
	}
}

func serialize(n *xmlstream.Node) string {
	if n == nil {
		return "<empty>"
	}
	return xmlstream.SerializeTree(n, false)
}

func treesEqual(a, b *xmlstream.Node) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Equal(b)
}

// figure3Doc is the abstract document of Figure 3:
//
//	a( b(d,c), b(d,c, b(d,c)) )
func figure3Doc() *xmlstream.Node {
	return xmlstream.NewElement("a",
		xmlstream.NewElement("b", xmlstream.Elem("d", "1"), xmlstream.Elem("c", "x")),
		xmlstream.NewElement("b",
			xmlstream.Elem("d", "2"),
			xmlstream.Elem("c", "y"),
			xmlstream.NewElement("b", xmlstream.Elem("d", "3"), xmlstream.Elem("c", "z")),
		),
	)
}

func hospitalTestDoc() *xmlstream.Node {
	folder := func(name, age, physician, cholesterol, protoType string) *xmlstream.Node {
		f := xmlstream.NewElement("Folder",
			xmlstream.NewElement("Admin",
				xmlstream.Elem("Fname", name),
				xmlstream.Elem("Age", age),
			),
		)
		if protoType != "" {
			f.Append(xmlstream.NewElement("Protocol",
				xmlstream.Elem("Id", "p-"+name),
				xmlstream.Elem("Type", protoType),
			))
		}
		f.Append(
			xmlstream.NewElement("MedActs",
				xmlstream.NewElement("Act",
					xmlstream.Elem("RPhys", physician),
					xmlstream.NewElement("Details",
						xmlstream.Elem("Diagnostic", "diag-"+name),
					),
				),
				xmlstream.NewElement("Act",
					xmlstream.Elem("RPhys", "DrOther"),
					xmlstream.NewElement("Details",
						xmlstream.Elem("Diagnostic", "other-diag-"+name),
					),
				),
			),
			xmlstream.NewElement("Analysis",
				xmlstream.NewElement("LabResults",
					xmlstream.NewElement("G3",
						xmlstream.Elem("Cholesterol", cholesterol),
						xmlstream.Elem("RPhys", physician),
					),
				),
			),
		)
		return f
	}
	return xmlstream.NewElement("Hospital",
		folder("alice", "52", "DrA", "200", "G3"),
		folder("bob", "31", "DrB", "280", "G3"),
		folder("carol", "64", "DrA", "300", ""),
	)
}

func TestFigure3AbstractPolicy(t *testing.T) {
	// R: +, //b[c]/d ; S: -, //c. The delivered elements are the d elements
	// (whose parent b has a c child) and the structural path to them; every
	// c is denied.
	doc := figure3Doc()
	policy := accessrule.AbstractPolicyRS()
	view, _ := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	if strings.Contains(s, "<c>") || strings.Contains(s, "x") || strings.Contains(s, "y") || strings.Contains(s, "z") {
		t.Fatalf("rule S must deny every c element: %s", s)
	}
	if strings.Count(s, "<d>") != 3 {
		t.Fatalf("rule R must deliver the three d elements: %s", s)
	}
	mustSame(t, doc, policy, nil)
}

func TestMotivatingProfilesMatchOracle(t *testing.T) {
	doc := hospitalTestDoc()
	policies := map[string]*accessrule.Policy{
		"secretary":      accessrule.SecretaryPolicy(),
		"doctorA":        accessrule.DoctorPolicy("DrA"),
		"doctorB":        accessrule.DoctorPolicy("DrB"),
		"researcher":     accessrule.ResearcherPolicy("G3"),
		"researcher-10g": accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...),
		"closed":         accessrule.NewPolicy("nobody"),
	}
	for name, p := range policies {
		t.Run(name, func(t *testing.T) {
			mustSame(t, doc, p, nil)
		})
	}
}

func TestDoctorViewContent(t *testing.T) {
	doc := hospitalTestDoc()
	view, _ := evaluate(t, doc, accessrule.DoctorPolicy("DrA"), Options{})
	s := serialize(view)
	if !strings.Contains(s, "diag-alice") || !strings.Contains(s, "diag-carol") {
		t.Errorf("doctor view misses own act details: %s", s)
	}
	if strings.Contains(s, "other-diag-alice") {
		t.Errorf("rule D3 violated (foreign act details leaked): %s", s)
	}
	if strings.Contains(s, "diag-bob") {
		t.Errorf("bob is not DrA's patient: %s", s)
	}
	if strings.Count(s, "<Admin>") != 3 {
		t.Errorf("rule D1 should expose every Admin: %s", s)
	}
}

func TestResearcherPendingPredicates(t *testing.T) {
	// The researcher rules make the delivery of Age and LabResults depend on
	// the Protocol predicate, which appears before them in the folder, and
	// the negative R3 rule depends on a Cholesterol value read inside the G3
	// subtree: both pending situations are exercised here.
	doc := hospitalTestDoc()
	policy := accessrule.ResearcherPolicy("G3")
	view, metrics := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	if !strings.Contains(s, "<Age>52</Age>") || !strings.Contains(s, "<Age>31</Age>") {
		t.Errorf("ages of protocol subscribers must be delivered: %s", s)
	}
	if strings.Contains(s, "64") {
		t.Errorf("carol has no protocol, her age must not appear: %s", s)
	}
	if !strings.Contains(s, "200") {
		t.Errorf("alice's lab results (cholesterol 200 <= 250) must be delivered: %s", s)
	}
	if strings.Contains(s, "280") || strings.Contains(s, "300") {
		t.Errorf("cholesterol above 250 must be denied by R3: %s", s)
	}
	if metrics.NodesPending == 0 {
		t.Errorf("researcher evaluation should buffer pending nodes, metrics=%+v", metrics)
	}
	mustSame(t, doc, policy, nil)
}

func TestPendingPredicateAfterSubtree(t *testing.T) {
	// Predicate element appears AFTER the subtree whose delivery it
	// conditions: //x[flag=1]//data with flag following data in document
	// order.
	doc, err := xmlstream.ParseTreeString(
		`<r><x><data>payload</data><flag>1</flag></x><x><data>hidden</data><flag>0</flag></x></r>`)
	if err != nil {
		t.Fatal(err)
	}
	policy := accessrule.NewPolicy("u", accessrule.MustRule("P", "+", "//x[flag=1]//data"))
	view, metrics := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	if !strings.Contains(s, "payload") {
		t.Fatalf("pending element must be delivered once the predicate resolves: %s", s)
	}
	if strings.Contains(s, "hidden") {
		t.Fatalf("unsatisfied predicate must suppress the subtree: %s", s)
	}
	if metrics.NodesPending == 0 {
		t.Fatal("the data element should have been buffered as pending")
	}
	mustSame(t, doc, policy, nil)
}

func TestDenialTakesPrecedenceStreaming(t *testing.T) {
	doc, _ := xmlstream.ParseTreeString(`<a><b>v</b></a>`)
	policy := accessrule.NewPolicy("u",
		accessrule.MustRule("P", "+", "//b"),
		accessrule.MustRule("N", "-", "//b"),
	)
	view, _ := evaluate(t, doc, policy, Options{})
	if view != nil {
		t.Fatalf("denial takes precedence, expected empty view, got %s", serialize(view))
	}
	mustSame(t, doc, policy, nil)
}

func TestMostSpecificTakesPrecedenceStreaming(t *testing.T) {
	doc, _ := xmlstream.ParseTreeString(`<a><b><c>deep</c></b><e>out</e></a>`)
	policy := accessrule.NewPolicy("u",
		accessrule.MustRule("N", "-", "/a"),
		accessrule.MustRule("P", "+", "//b"),
	)
	view, _ := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	if !strings.Contains(s, "deep") || strings.Contains(s, "out") {
		t.Fatalf("most-specific-object resolution incorrect: %s", s)
	}
	mustSame(t, doc, policy, nil)
	// Reverse nesting.
	policy2 := accessrule.NewPolicy("u",
		accessrule.MustRule("P", "+", "/a"),
		accessrule.MustRule("N", "-", "//b"),
	)
	mustSame(t, doc, policy2, nil)
}

func TestStructuralRuleAndDummyNames(t *testing.T) {
	doc, _ := xmlstream.ParseTreeString(`<root><wrap><leaf>v</leaf></wrap></root>`)
	policy := accessrule.NewPolicy("u", accessrule.MustRule("P", "+", "//leaf"))
	res, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{DummyDeniedNames: true})
	if err != nil {
		t.Fatal(err)
	}
	s := serialize(res.View)
	if strings.Contains(s, "wrap") || strings.Contains(s, "root") {
		t.Fatalf("denied ancestors should be dummied: %s", s)
	}
	if !strings.Contains(s, "<leaf>v</leaf>") || strings.Count(s, "<_>") != 2 {
		t.Fatalf("structural path incorrect: %s", s)
	}
}

func TestQueryIntersection(t *testing.T) {
	doc := hospitalTestDoc()
	// Doctor DrA pulls folders of patients older than 50.
	q := xpath.MustParse("//Folder[Admin/Age > 50]")
	mustSame(t, doc, accessrule.DoctorPolicy("DrA"), q)
	// A query relying on denied data yields nothing for the secretary.
	q2 := xpath.MustParse("//Folder[MedActs/Act/RPhys = DrA]")
	mustSame(t, doc, accessrule.SecretaryPolicy(), q2)
	// Query matching nothing.
	q3 := xpath.MustParse("//Folder[Admin/Age > 1000]")
	mustSame(t, doc, accessrule.DoctorPolicy("DrA"), q3)
	// Query over everything.
	q4 := xpath.MustParse("//Folder")
	mustSame(t, doc, accessrule.ResearcherPolicy("G3"), q4)
}

func TestQueryPendingPredicate(t *testing.T) {
	// The query predicate resolves after the authorized content has been
	// seen: //Folder[//Age>40] with Age stored after MedActs.
	doc, _ := xmlstream.ParseTreeString(
		`<h><Folder><MedActs><Act><RPhys>DrA</RPhys></Act></MedActs><Admin><Age>52</Age></Admin></Folder>` +
			`<Folder><MedActs><Act><RPhys>DrA</RPhys></Act></MedActs><Admin><Age>30</Age></Admin></Folder></h>`)
	q := xpath.MustParse("//Folder[//Age>40]")
	mustSame(t, doc, accessrule.DoctorPolicy("DrA"), q)
}

// outOfScopeDeferralCase is one document, policy and query of
// TestQueryObservationUnderOutOfScopeElement.
type outOfScopeDeferralCase struct {
	name   string
	doc    *xmlstream.Node
	policy *accessrule.Policy
	query  *xpath.Path
}

// outOfScopeDeferralCases observe the query predicate b=1 of //a[b=1]/c
// under b, which lies outside the query's scope and whose access waits on
// the rule predicate d=1. The observation counts once d=1 resolves b's
// access to Permit, whatever the order of b, c and d.
func outOfScopeDeferralCases(t *testing.T) []outOfScopeDeferralCase {
	t.Helper()
	policy := accessrule.NewPolicy("u", accessrule.MustRule("R", "+", "//a[d=1]"))
	query := xpath.MustParse("//a[b=1]/c")
	var cases []outOfScopeDeferralCase
	for _, c := range []struct{ order, src string }{
		{"bcd", `<r><a><b>1</b><c>x</c><d>1</d></a></r>`},
		{"bdc", `<r><a><b>1</b><d>1</d><c>x</c></a></r>`},
		{"cbd", `<r><a><c>x</c><b>1</b><d>1</d></a></r>`},
	} {
		doc, err := xmlstream.ParseTreeString(c.src)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, outOfScopeDeferralCase{c.order, doc, policy, query})
	}
	return cases
}

func TestQueryObservationUnderOutOfScopeElement(t *testing.T) {
	for _, tc := range outOfScopeDeferralCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			mustSame(t, tc.doc, tc.policy, tc.query)
		})
	}
}

func TestWildcardRules(t *testing.T) {
	doc := figure3Doc()
	policies := []*accessrule.Policy{
		accessrule.NewPolicy("u", accessrule.MustRule("P", "+", "/a/*")),
		accessrule.NewPolicy("u", accessrule.MustRule("P", "+", "//*[d=3]")),
		accessrule.NewPolicy("u",
			accessrule.MustRule("P", "+", "//*"),
			accessrule.MustRule("N", "-", "//b/b"),
		),
	}
	for _, p := range policies {
		mustSame(t, doc, p, nil)
	}
}

func TestFigure7Document(t *testing.T) {
	// The document of Figure 7 with its four access rules.
	doc, err := xmlstream.ParseTreeString(
		`<a><b><m>1</m><o>2</o><p>3</p></b>` +
			`<c><e><m>3</m><t>1</t><p>2</p></e><f><m>1</m><p>2</p></f><g>x</g><h><m>1</m><k>2</k></h><i>3</i></c>` +
			`<d>4</d></a>`)
	if err != nil {
		t.Fatal(err)
	}
	policy := accessrule.AbstractPolicyFigure7()
	mustSame(t, doc, policy, nil)
	view, _ := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	// U: //h[k = 2] delivers the h subtree.
	if !strings.Contains(s, "<k>2</k>") {
		t.Errorf("rule U should deliver h: %s", s)
	}
	// S: -, //c/e[m=3] denies the e subtree.
	if strings.Contains(s, "<t>") {
		t.Errorf("rule S should deny the e subtree: %s", s)
	}
	// T: //c[//i = 3]//f delivers f (i=3 holds).
	if !strings.Contains(s, "<f>") {
		t.Errorf("rule T should deliver f: %s", s)
	}
}

func TestRulesWithUserVariable(t *testing.T) {
	doc := hospitalTestDoc()
	// D2/D3 use USER: check both physicians get exactly their own folders.
	for _, phys := range []string{"DrA", "DrB"} {
		mustSame(t, doc, accessrule.DoctorPolicy(phys), nil)
	}
}

func TestEmptyAndDegenerateDocuments(t *testing.T) {
	policy := accessrule.SecretaryPolicy()
	// Single empty root element.
	doc := xmlstream.NewElement("root")
	mustSame(t, doc, policy, nil)
	// Root matched directly by a rule.
	doc2 := xmlstream.NewElement("Admin", xmlstream.Elem("Name", "x"))
	mustSame(t, doc2, policy, nil)
	// Deep chain.
	chain := xmlstream.NewElement("Admin")
	cur := chain
	for i := 0; i < 30; i++ {
		next := xmlstream.NewElement("Nested")
		cur.Append(next)
		cur = next
	}
	cur.Append(xmlstream.NewText("bottom"))
	mustSame(t, chain, policy, nil)
}

func TestRecursiveElementNames(t *testing.T) {
	// Recursive b elements exercise multiple simultaneous rule instances
	// (the situation highlighted by footnote 5 of the paper).
	doc, _ := xmlstream.ParseTreeString(
		`<a><b><b><c>1</c><d>x</d></b><d>y</d></b><b><d>z</d></b></a>`)
	policy := accessrule.NewPolicy("u",
		accessrule.MustRule("R", "+", "//b[c]/d"),
		accessrule.MustRule("S", "-", "//c"),
	)
	mustSame(t, doc, policy, nil)
	view, _ := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	// Only the inner b has a c child, so only "x" is delivered.
	if !strings.Contains(s, "x") || strings.Contains(s, "y") || strings.Contains(s, "z") {
		t.Fatalf("rule instance separation incorrect: %s", s)
	}
}

func TestPredicateOnAncestorWithDescendantAxis(t *testing.T) {
	// //Folder[MedActs//RPhys = DrA]/Analysis: predicate path itself uses //.
	doc := hospitalTestDoc()
	policy := accessrule.NewPolicy("u",
		accessrule.MustRule("D4", "+", "//Folder[MedActs//RPhys = DrA]/Analysis"))
	mustSame(t, doc, policy, nil)
}

func TestNumericStringAndExistencePredicates(t *testing.T) {
	doc, _ := xmlstream.ParseTreeString(
		`<r><item><price>12.5</price><tag>sale</tag><body>one</body></item>` +
			`<item><price>99</price><body>two</body></item>` +
			`<item><tag>sale</tag><body>three</body></item></r>`)
	cases := []string{
		"//item[price < 50]/body",
		"//item[price >= 99]/body",
		"//item[tag]/body",
		"//item[tag = sale]/body",
		"//item[price != 99]/body",
		"//item[missing]/body",
	}
	for _, expr := range cases {
		policy := accessrule.NewPolicy("u", accessrule.MustRule("P", "+", expr))
		mustSame(t, doc, policy, nil)
	}
}

func TestMultiplePredicatesOnOneStep(t *testing.T) {
	doc, _ := xmlstream.ParseTreeString(
		`<r><x><a>1</a><b>2</b><v>keep</v></x><x><a>1</a><v>drop</v></x><x><b>2</b><v>drop2</v></x></r>`)
	policy := accessrule.NewPolicy("u", accessrule.MustRule("P", "+", "//x[a=1][b=2]/v"))
	view, _ := evaluate(t, doc, policy, Options{})
	s := serialize(view)
	if !strings.Contains(s, "keep") || strings.Contains(s, "drop") {
		t.Fatalf("conjunction of predicates incorrect: %s", s)
	}
	mustSame(t, doc, policy, nil)
}

func TestEvaluatorMetricsAndOptions(t *testing.T) {
	doc := hospitalTestDoc()
	policy := accessrule.ResearcherPolicy("G3")
	_, base := evaluate(t, doc, policy, Options{})
	_, noSubtree := evaluate(t, doc, policy, Options{DisableSubtreeDecisions: true})
	if noSubtree.TokenOps < base.TokenOps {
		t.Errorf("disabling subtree decisions should not reduce work: base=%d disabled=%d",
			base.TokenOps, noSubtree.TokenOps)
	}
	// Ablations must not change the result.
	for _, opt := range []Options{
		{DisableSubtreeDecisions: true},
		{DisablePredicateShortCircuit: true},
		{DisableSubtreeDecisions: true, DisablePredicateShortCircuit: true},
	} {
		v, _ := evaluate(t, doc, policy, opt)
		oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{})
		if !treesEqual(v, oracle) {
			t.Errorf("ablation %+v changed the result", opt)
		}
	}
}

func TestEvaluatorRejectsMalformedEventStream(t *testing.T) {
	policy := accessrule.SecretaryPolicy()
	// Close without open.
	if _, err := Evaluate(xmlstream.NewEventSliceReader([]xmlstream.Event{
		{Kind: xmlstream.Close, Name: "a", Depth: 1},
	}), policy, Options{}); err == nil {
		t.Fatal("expected error for unbalanced close")
	}
	// Open at inconsistent depth.
	if _, err := Evaluate(xmlstream.NewEventSliceReader([]xmlstream.Event{
		{Kind: xmlstream.Open, Name: "a", Depth: 3},
	}), policy, Options{}); err == nil {
		t.Fatal("expected error for depth mismatch")
	}
	// Unterminated document.
	if _, err := Evaluate(xmlstream.NewEventSliceReader([]xmlstream.Event{
		{Kind: xmlstream.Open, Name: "a", Depth: 1},
	}), policy, Options{}); err == nil {
		t.Fatal("expected error for unterminated document")
	}
}

func TestDecisionString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" || Pending.String() != "pending" {
		t.Fatal("Decision.String incorrect")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision should render")
	}
}
