// Package accessrule implements the access-control model of the paper
// (section 2): rules of the form <sign, subject, object> where the object is
// an XPath expression of XP{[],*,//}, policies grouping the rules granted to
// one subject on one document, the closed-policy / Denial-Takes-Precedence /
// Most-Specific-Object-Takes-Precedence semantics constants used by the
// streaming evaluator, the motivating-example policies of Figure 1 and the
// static containment-based policy minimization sketched in section 3.3.
package accessrule

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"xmlac/internal/xpath"
)

// Sign is the polarity of an access rule.
type Sign int

const (
	// Permit grants read access to the object ("positive rule").
	Permit Sign = iota
	// Deny forbids read access to the object ("negative rule").
	Deny
)

// String implements fmt.Stringer using the paper's ⊕/⊖ convention rendered
// in ASCII.
func (s Sign) String() string {
	if s == Deny {
		return "-"
	}
	return "+"
}

// Rule is one access-control rule: <sign, subject, object>. Subject is kept
// on the Policy; the rule itself carries the sign, a stable identifier used
// in traces, and the object path.
type Rule struct {
	// ID is a short identifier such as "D2" or "R1"; it is assigned
	// automatically when empty.
	ID string
	// Sign is Permit or Deny.
	Sign Sign
	// Object delineates the scope of the rule. Per the cascading-propagation
	// principle the rule applies to every node matched by Object and to all
	// their descendants.
	Object *xpath.Path
}

// String renders the rule as "ID: ±, object".
func (r Rule) String() string {
	return fmt.Sprintf("%s: %s, %s", r.ID, r.Sign, r.Object)
}

// ErrInvalidRule wraps rule and policy construction errors.
var ErrInvalidRule = errors.New("accessrule: invalid rule")

// ParseRule builds a rule from a sign ('+' or '-') and an XPath object
// expression.
func ParseRule(id string, sign string, object string) (Rule, error) {
	var s Sign
	switch strings.TrimSpace(sign) {
	case "+", "permit", "allow":
		s = Permit
	case "-", "deny", "forbid":
		s = Deny
	default:
		return Rule{}, fmt.Errorf("%w: unknown sign %q", ErrInvalidRule, sign)
	}
	p, err := xpath.Parse(object)
	if err != nil {
		return Rule{}, fmt.Errorf("%w: %w", ErrInvalidRule, err)
	}
	return Rule{ID: id, Sign: s, Object: p}, nil
}

// MustRule is ParseRule panicking on error; used for built-in policies and
// tests.
func MustRule(id, sign, object string) Rule {
	r, err := ParseRule(id, sign, object)
	if err != nil {
		panic(err)
	}
	return r
}

// Policy is the access control policy of one subject over one document: "the
// set of rules attached to a given subject on a given document" (section 2).
// The policy is closed: by default nothing is accessible, and the structural
// rule keeps ancestors of authorized nodes in the view.
type Policy struct {
	// Subject identifies the user or role; it substitutes the USER variable
	// of rule predicates.
	Subject string
	// Rules in declaration order.
	Rules []Rule
}

// NewPolicy builds a policy for a subject. Rules with an empty ID get one
// assigned from their sign and position.
func NewPolicy(subject string, rules ...Rule) *Policy {
	p := &Policy{Subject: subject}
	for _, r := range rules {
		p.Add(r)
	}
	return p
}

// Add appends a rule, assigning an ID when missing and binding the USER
// variable of its object to the policy subject.
func (p *Policy) Add(r Rule) {
	if r.ID == "" {
		r.ID = fmt.Sprintf("%s%d", map[Sign]string{Permit: "P", Deny: "N"}[r.Sign], len(p.Rules)+1)
	}
	if p.Subject != "" {
		r.Object = r.Object.BindUser(p.Subject)
	}
	p.Rules = append(p.Rules, r)
}

// String renders the policy, one rule per line.
func (p *Policy) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy for %q:\n", p.Subject)
	for _, r := range p.Rules {
		fmt.Fprintf(&sb, "  %s\n", r)
	}
	return sb.String()
}

// PositiveRules returns the permit rules of the policy.
func (p *Policy) PositiveRules() []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Sign == Permit {
			out = append(out, r)
		}
	}
	return out
}

// NegativeRules returns the deny rules of the policy.
func (p *Policy) NegativeRules() []Rule {
	var out []Rule
	for _, r := range p.Rules {
		if r.Sign == Deny {
			out = append(out, r)
		}
	}
	return out
}

// Labels returns the union of the element labels mentioned by all rule
// objects. The Skip index uses it to prune rules inside subtrees.
func (p *Policy) Labels() map[string]struct{} {
	out := map[string]struct{}{}
	for _, r := range p.Rules {
		for l := range r.Object.Labels() {
			out[l] = struct{}{}
		}
	}
	return out
}

// Fingerprint returns a stable hex digest identifying the policy: same
// subject and same rules (IDs, signs and objects, in order) yield the same
// fingerprint across processes. The server reports it as the policy hash of
// every view and keys its per-(subject, policy) cost buckets on it.
func (p *Policy) Fingerprint() string {
	h := sha256.New()
	io.WriteString(h, p.Subject)
	h.Write([]byte{0})
	for _, r := range p.Rules {
		io.WriteString(h, r.ID)
		h.Write([]byte{0})
		io.WriteString(h, r.Sign.String())
		h.Write([]byte{0})
		io.WriteString(h, r.Object.String())
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Clone returns a deep copy of the policy.
func (p *Policy) Clone() *Policy {
	cp := &Policy{Subject: p.Subject, Rules: make([]Rule, len(p.Rules))}
	for i, r := range p.Rules {
		cp.Rules[i] = Rule{ID: r.ID, Sign: r.Sign, Object: r.Object.Clone()}
	}
	return cp
}

// Minimize applies the static optimization of section 3.3: a rule S may be
// removed when another rule R of the same sign contains it AND no rule T of
// opposite sign is contained in R (the strong sufficient condition given in
// the paper: {Ti..} ⊑ {Si..} ⊑ {Ri..} with matching signs would allow
// eliminating the Si, which degenerates to this pairwise check when no
// opposite-sign rule interferes). The original policy is not modified; the
// minimized copy is returned together with the IDs of the removed rules.
func (p *Policy) Minimize() (*Policy, []string) {
	keep := make([]bool, len(p.Rules))
	for i := range keep {
		keep[i] = true
	}
	var removed []string
	for i, s := range p.Rules {
		if !keep[i] {
			continue
		}
		for j, r := range p.Rules {
			if i == j || !keep[j] || r.Sign != s.Sign {
				continue
			}
			if !xpath.Contains(r.Object, s.Object) {
				continue
			}
			// If the container also contains s (mutual containment,
			// i.e. equivalent objects) keep the earlier rule and drop the
			// later one to stay deterministic.
			if xpath.Contains(s.Object, r.Object) && j > i {
				continue
			}
			// Elimination is blocked if any opposite-sign rule is contained
			// in the container R: inside R's scope that rule could override
			// R but not S (most-specific-object), so S still matters.
			blocked := false
			for _, t := range p.Rules {
				if t.Sign == r.Sign {
					continue
				}
				if xpath.Contains(r.Object, t.Object) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			keep[i] = false
			removed = append(removed, s.ID)
			break
		}
	}
	out := &Policy{Subject: p.Subject}
	for i, r := range p.Rules {
		if keep[i] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out, removed
}
