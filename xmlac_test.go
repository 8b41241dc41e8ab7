package xmlac

import (
	"context"
	"errors"
	"strings"
	"testing"
)

const sampleHospital = `<Hospital>
  <Folder>
    <Admin><Fname>alice</Fname><Age>52</Age></Admin>
    <Protocol><Type>G3</Type></Protocol>
    <MedActs>
      <Act><RPhys>DrA</RPhys><Details><Diagnostic>flu</Diagnostic></Details></Act>
      <Act><RPhys>DrB</RPhys><Details><Diagnostic>secret-b</Diagnostic></Details></Act>
    </MedActs>
    <Analysis><LabResults><G3><Cholesterol>200</Cholesterol></G3></LabResults></Analysis>
  </Folder>
  <Folder>
    <Admin><Fname>bob</Fname><Age>31</Age></Admin>
    <MedActs><Act><RPhys>DrB</RPhys><Details><Diagnostic>secret-b2</Diagnostic></Details></Act></MedActs>
    <Analysis><LabResults><G3><Cholesterol>280</Cholesterol></G3></LabResults></Analysis>
  </Folder>
</Hospital>`

func TestParseAndStats(t *testing.T) {
	doc, err := ParseDocumentString(sampleHospital)
	if err != nil {
		t.Fatal(err)
	}
	st := doc.Stats()
	if st.Elements == 0 || st.MaxDepth < 5 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if doc.XML() == "" || doc.IndentedXML() == "" {
		t.Fatal("serialization failed")
	}
	if doc.IsEmpty() {
		t.Fatal("document should not be empty")
	}
	if _, err := ParseDocumentString("<broken>"); err == nil {
		t.Fatal("malformed document must fail")
	}
}

func TestEvaluateDocumentProfiles(t *testing.T) {
	doc, _ := ParseDocumentString(sampleHospital)
	// Secretary sees Admin only.
	view, err := EvaluateDocument(doc, SecretaryPolicy(), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := view.XML()
	if !strings.Contains(s, "alice") || strings.Contains(s, "flu") || strings.Contains(s, "Cholesterol") {
		t.Fatalf("secretary view wrong: %s", s)
	}
	// Doctor DrA: own act details, not DrB's.
	view, err = EvaluateDocument(doc, DoctorPolicy("DrA"), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s = view.XML()
	if !strings.Contains(s, "flu") || strings.Contains(s, "secret-b") {
		t.Fatalf("doctor view wrong: %s", s)
	}
	// Researcher G3: alice's lab results (cholesterol 200), not bob's (280).
	view, err = EvaluateDocument(doc, ResearcherPolicy("G3"), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s = view.XML()
	if !strings.Contains(s, "200") || strings.Contains(s, "280") || strings.Contains(s, "alice") {
		t.Fatalf("researcher view wrong: %s", s)
	}
}

// materialize compiles policy and returns its materialized view of prot.
func materialize(prot *Protected, key Key, policy Policy, opts ViewOptions) (*Document, *Metrics, error) {
	cp, err := policy.Compile()
	if err != nil {
		return nil, nil, err
	}
	return prot.View(context.Background(), key, cp, opts, nil)
}

func TestProtectAndAuthorizedViewAllSchemes(t *testing.T) {
	doc, _ := ParseDocumentString(sampleHospital)
	key := DeriveKey("secret passphrase")
	reference, err := EvaluateDocument(doc, DoctorPolicy("DrA"), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeECB, SchemeECBMHT, SchemeCBCSHA, SchemeCBCSHAC} {
		prot, err := Protect(doc, key, scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		view, metrics, err := materialize(prot, key, DoctorPolicy("DrA"), ViewOptions{})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if view.XML() != reference.XML() {
			t.Fatalf("%s: encrypted evaluation differs from plaintext evaluation", scheme)
		}
		if metrics.BytesTransferred == 0 || metrics.NodesPermitted == 0 {
			t.Fatalf("%s: metrics missing: %+v", scheme, metrics)
		}
		if metrics.EstimatedSmartCardSeconds <= 0 {
			t.Fatalf("%s: estimate missing", scheme)
		}
	}
}

func TestProtectedMarshalRoundTrip(t *testing.T) {
	doc, _ := ParseDocumentString(sampleHospital)
	key := DeriveKey("k")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	blob := prot.Marshal()
	back, err := UnmarshalProtected(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != prot.Size() {
		t.Fatal("size changed across marshal round trip")
	}
	view, _, err := materialize(back, key, SecretaryPolicy(), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(view.XML(), "alice") {
		t.Fatalf("view after round trip wrong: %s", view.XML())
	}
	if _, err := UnmarshalProtected([]byte("garbage")); err == nil {
		t.Fatal("garbage must not unmarshal")
	}
}

func TestQueryAndSkipping(t *testing.T) {
	doc, _ := ParseDocumentString(sampleHospital)
	key := DeriveKey("k")
	prot, _ := Protect(doc, key, SchemeECBMHT)
	view, metrics, err := materialize(prot, key, DoctorPolicy("DrA"), ViewOptions{Query: "//Folder[Admin/Age > 40]"})
	if err != nil {
		t.Fatal(err)
	}
	s := view.XML()
	if !strings.Contains(s, "alice") || strings.Contains(s, "bob") {
		t.Fatalf("query view wrong: %s", s)
	}
	if metrics.BytesSkipped == 0 {
		t.Fatalf("selective access should skip data: %+v", metrics)
	}
	// Bad query.
	if _, _, err := materialize(prot, key, DoctorPolicy("DrA"), ViewOptions{Query: "not a path"}); err == nil {
		t.Fatal("invalid query must fail")
	}
}

// TestQueryObservedUnderPendingOutOfScopeElement pins a query predicate
// (b=1) observed under an element outside the query's scope whose access
// waits on a rule predicate (d=1) that resolves later: the observation
// counts once the access resolves to Permit.
func TestQueryObservedUnderPendingOutOfScopeElement(t *testing.T) {
	doc, err := ParseDocumentString(`<r><a><b>1</b><c>x</c><d>1</d></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	key := DeriveKey("k")
	prot, err := Protect(doc, key, SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	policy := Policy{Subject: "u", Rules: []Rule{{Sign: "+", Object: "//a[d=1]"}}}
	view, _, err := materialize(prot, key, policy, ViewOptions{Query: "//a[b=1]/c"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := view.XML(), "<r><a><c>x</c></a></r>"; got != want {
		t.Fatalf("view %s, want %s", got, want)
	}
}

func TestWrongKeyDetected(t *testing.T) {
	doc, _ := ParseDocumentString(sampleHospital)
	prot, _ := Protect(doc, DeriveKey("right"), SchemeECBMHT)
	if _, _, err := materialize(prot, DeriveKey("wrong"), SecretaryPolicy(), ViewOptions{}); err == nil {
		t.Fatal("wrong key must be detected by the integrity check")
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := (Policy{Subject: "x"}).Compile(); !errors.Is(err, ErrInvalidPolicy) {
		t.Fatalf("empty policy compiled, or failed without ErrInvalidPolicy: %v", err)
	}
	if !strings.Contains(ErrInvalidPolicy.Error(), "invalid policy") {
		t.Fatal("sentinel error text changed")
	}
	bad := Policy{Subject: "x", Rules: []Rule{{Sign: "+", Object: "not-a-path"}}}
	if _, err := bad.Compile(); !errors.Is(err, ErrInvalidPolicy) {
		t.Fatalf("bad object compiled, or failed without ErrInvalidPolicy: %v", err)
	}
	for _, p := range []Policy{DoctorPolicy("DrA"), ResearcherPolicy(), SecretaryPolicy()} {
		if _, err := p.Compile(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ValidateXPath("//a[b>3]/c"); err != nil {
		t.Fatal(err)
	}
	if err := ValidateXPath("///"); err == nil {
		t.Fatal("invalid xpath must fail")
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range []string{"ecb", "ecb-mht", "cbc-sha", "cbc-shac", "ECB-MHT"} {
		if _, err := ParseScheme(s); err != nil {
			t.Errorf("ParseScheme(%q): %v", s, err)
		}
	}
	if _, err := ParseScheme("rot13"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if _, err := NewKey(make([]byte, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("short key must fail")
	}
}

func TestDummyDeniedNames(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><secret><x>v</x></secret></a>`)
	view, err := EvaluateDocument(doc, Policy{Subject: "u", Rules: []Rule{{Sign: "+", Object: "//x"}}},
		ViewOptions{DummyDeniedNames: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(view.XML(), "secret") || !strings.Contains(view.XML(), "<x>v</x>") {
		t.Fatalf("dummy names wrong: %s", view.XML())
	}
}

func TestEmptyViewAndEmptyDocument(t *testing.T) {
	doc, _ := ParseDocumentString(`<a><b>v</b></a>`)
	view, err := EvaluateDocument(doc, Policy{Subject: "u", Rules: []Rule{{Sign: "+", Object: "//missing"}}}, ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !view.IsEmpty() || view.XML() != "" {
		t.Fatalf("expected empty view, got %q", view.XML())
	}
	empty := &Document{}
	if _, err := Protect(empty, DeriveKey("k"), SchemeECB); err == nil {
		t.Fatal("protecting an empty document must fail")
	}
	if v, err := EvaluateDocument(empty, SecretaryPolicy(), ViewOptions{}); err != nil || !v.IsEmpty() {
		t.Fatal("evaluating an empty document should yield an empty view")
	}
}
