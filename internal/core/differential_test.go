package core

import (
	"fmt"
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

// Differential testing: the streaming evaluator must produce exactly the
// same authorized view as the naive in-memory oracle of internal/accessrule
// for randomly generated documents, policies and queries. This is the
// strongest correctness guarantee of the repository: every conflict
// resolution, propagation, pending-predicate and query-intersection path is
// exercised against an independent implementation of the semantics.

// rng is a small deterministic linear congruential generator (math/rand is
// avoided so the corpus is stable across Go versions).
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed*6364136223846793005 + 1442695040888963407} }

func (r *rng) next(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

func (r *rng) pick(items []string) string { return items[r.next(len(items))] }

var diffTags = []string{"a", "b", "c", "d", "e", "f", "g"}
var diffValues = []string{"1", "2", "3", "10", "42", "x", "y", "G3"}

// randomDocument builds a random document with controlled fan-out and depth;
// leaf elements carry a text value.
func randomDocument(r *rng, maxDepth, maxFanout int) *xmlstream.Node {
	var build func(depth int) *xmlstream.Node
	build = func(depth int) *xmlstream.Node {
		n := xmlstream.NewElement(r.pick(diffTags))
		if depth >= maxDepth || r.next(4) == 0 {
			n.Append(xmlstream.NewText(r.pick(diffValues)))
			return n
		}
		kids := r.next(maxFanout) + 1
		for i := 0; i < kids; i++ {
			n.Append(build(depth + 1))
		}
		return n
	}
	root := xmlstream.NewElement("root")
	kids := r.next(maxFanout) + 1
	for i := 0; i < kids; i++ {
		root.Append(build(2))
	}
	return root
}

// randomPathExpr generates a random XPath expression of the fragment.
func randomPathExpr(r *rng) string {
	steps := r.next(3) + 1
	expr := ""
	for i := 0; i < steps; i++ {
		if r.next(2) == 0 {
			expr += "//"
		} else {
			expr += "/"
		}
		if i == 0 && expr == "/" && r.next(3) == 0 {
			expr = "//"
		}
		name := r.pick(diffTags)
		if r.next(6) == 0 {
			name = "*"
		}
		expr += name
		if r.next(3) == 0 {
			// Attach a predicate.
			predPath := r.pick(diffTags)
			if r.next(3) == 0 {
				predPath = "//" + predPath
			}
			switch r.next(3) {
			case 0:
				expr += "[" + predPath + "]"
			case 1:
				expr += fmt.Sprintf("[%s=%s]", predPath, r.pick(diffValues))
			default:
				expr += fmt.Sprintf("[%s>%d]", predPath, r.next(40))
			}
		}
	}
	return expr
}

// randomPolicy generates a random policy with 1..5 rules of mixed signs.
func randomPolicy(r *rng) *accessrule.Policy {
	p := accessrule.NewPolicy("fuzz")
	n := r.next(5) + 1
	for i := 0; i < n; i++ {
		sign := "+"
		if r.next(3) == 0 {
			sign = "-"
		}
		expr := randomPathExpr(r)
		rule, err := accessrule.ParseRule(fmt.Sprintf("F%d", i), sign, expr)
		if err != nil {
			// Extremely unlikely given the generator, but never fail the
			// fuzz loop on generation issues.
			continue
		}
		p.Add(rule)
	}
	if len(p.Rules) == 0 {
		p.Add(accessrule.MustRule("F0", "+", "//a"))
	}
	return p
}

// The seeds of the random-policy and random-query differential tests.
const (
	policySeeds     = 400
	querySeedsStart = 1000
	querySeeds      = 250
)

// policyCase generates the document and policy of one random-policy seed.
func policyCase(seed int) (*xmlstream.Node, *accessrule.Policy) {
	r := newRng(uint64(seed))
	doc := randomDocument(r, 4+r.next(3), 3)
	return doc, randomPolicy(r)
}

// queryCase generates the document, policy and query of one random-query
// seed; err is set when the generated query does not parse.
func queryCase(seed int) (doc *xmlstream.Node, policy *accessrule.Policy, expr string, query *xpath.Path, err error) {
	r := newRng(uint64(seed))
	doc = randomDocument(r, 4, 3)
	policy = randomPolicy(r)
	expr = randomPathExpr(r)
	query, err = xpath.Parse(expr)
	return doc, policy, expr, query, err
}

func TestDifferentialRandomPolicies(t *testing.T) {
	for seed := 0; seed < policySeeds; seed++ {
		doc, policy := policyCase(seed)
		oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{})
		res, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{})
		if err != nil {
			t.Fatalf("seed %d: Evaluate failed: %v\ndoc: %s\npolicy: %s",
				seed, err, xmlstream.SerializeTree(doc, false), policy)
		}
		if !treesEqual(res.View, oracle) {
			t.Fatalf("seed %d: mismatch\ndoc:       %s\npolicy: %s\nstreaming: %s\noracle:    %s",
				seed, xmlstream.SerializeTree(doc, false), policy, serialize(res.View), serialize(oracle))
		}
	}
}

func TestDifferentialRandomQueries(t *testing.T) {
	for seed := querySeedsStart; seed < querySeedsStart+querySeeds; seed++ {
		doc, policy, queryExpr, query, err := queryCase(seed)
		if err != nil {
			continue
		}
		oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{Query: query})
		res, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{Query: query})
		if err != nil {
			t.Fatalf("seed %d: Evaluate failed: %v", seed, err)
		}
		if !treesEqual(res.View, oracle) {
			t.Fatalf("seed %d: query mismatch\ndoc:       %s\npolicy: %s\nquery: %s\nstreaming: %s\noracle:    %s",
				seed, xmlstream.SerializeTree(doc, false), policy, queryExpr, serialize(res.View), serialize(oracle))
		}
	}
}

// TestDifferentialReusedEvaluator runs the seeds of the two tests above and
// the out-of-scope deferral cases through one Evaluator reset between runs,
// so every run after the first builds its view from result nodes an earlier
// run recycled. A stale waiter registration or a node recycled too early
// shows as a mismatch against the oracle.
func TestDifferentialReusedEvaluator(t *testing.T) {
	var e Evaluator
	check := func(name string, doc *xmlstream.Node, policy *accessrule.Policy, query *xpath.Path) {
		t.Helper()
		e.Reset(xmlstream.NewTreeReader(doc), CompilePolicy(policy), Options{Query: query})
		res, err := e.Run()
		if err != nil {
			t.Fatalf("%s: Run failed: %v", name, err)
		}
		oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{Query: query})
		if !treesEqual(res.View, oracle) {
			t.Fatalf("%s: reused evaluator differs from oracle\ndoc:       %s\npolicy: %s\nstreaming: %s\noracle:    %s",
				name, xmlstream.SerializeTree(doc, false), policy, serialize(res.View), serialize(oracle))
		}
	}
	for seed := 0; seed < policySeeds; seed++ {
		doc, policy := policyCase(seed)
		check(fmt.Sprintf("policy seed %d", seed), doc, policy, nil)
	}
	for seed := querySeedsStart; seed < querySeedsStart+querySeeds; seed++ {
		doc, policy, expr, query, err := queryCase(seed)
		if err != nil {
			continue
		}
		check(fmt.Sprintf("query seed %d (%s)", seed, expr), doc, policy, query)
	}
	for _, tc := range outOfScopeDeferralCases(t) {
		check(tc.name, tc.doc, tc.policy, tc.query)
	}
}

func TestDifferentialAblationsRandom(t *testing.T) {
	// The optimizations (subtree decisions, predicate short-circuit) must
	// never change the result.
	const iterations = 150
	for seed := 5000; seed < 5000+iterations; seed++ {
		r := newRng(uint64(seed))
		doc := randomDocument(r, 4, 3)
		policy := randomPolicy(r)
		base, err := Evaluate(xmlstream.NewTreeReader(doc), policy, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, opts := range []Options{
			{DisableSubtreeDecisions: true},
			{DisablePredicateShortCircuit: true},
			{DisableSubtreeDecisions: true, DisablePredicateShortCircuit: true},
		} {
			alt, err := Evaluate(xmlstream.NewTreeReader(doc), policy, opts)
			if err != nil {
				t.Fatalf("seed %d opts %+v: %v", seed, opts, err)
			}
			if !treesEqual(base.View, alt.View) {
				t.Fatalf("seed %d: ablation %+v changed result\nbase: %s\nalt:  %s",
					seed, opts, serialize(base.View), serialize(alt.View))
			}
		}
	}
}
