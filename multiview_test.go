package xmlac_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// Shared-scan parity: AuthorizedViewsCompiled must deliver, for every subject
// of the shared scan, exactly the bytes StreamAuthorizedViewCompiled delivers
// solo, and identical Metrics modulo the shared-cost fields (bytes
// transferred / decrypted / physically skipped, the derived smart-card
// estimate, and the wall-clock first-byte stamp) — those describe the one
// shared pass instead of a per-subject pass.

// scrubSharedCosts zeroes the fields that legitimately differ between a solo
// scan and a shared scan.
func scrubSharedCosts(m *xmlac.Metrics) xmlac.Metrics {
	out := *m
	out.BytesTransferred = 0
	out.BytesDecrypted = 0
	out.BytesSkipped = 0
	out.EstimatedSmartCardSeconds = 0
	out.TimeToFirstByte = 0
	out.Duration = 0
	return out
}

// multiRng is the same tiny deterministic LCG used by the core differential
// tests, so the corpus is stable across Go versions.
type multiRng struct{ state uint64 }

func newMultiRng(seed uint64) *multiRng {
	return &multiRng{state: seed*6364136223846793005 + 1442695040888963407}
}

func (r *multiRng) next(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

func (r *multiRng) pick(items []string) string { return items[r.next(len(items))] }

var multiTags = []string{"a", "b", "c", "d", "e"}
var multiValues = []string{"1", "2", "10", "42", "x", "G3"}

func randomMultiDocXML(r *multiRng) string {
	var sb strings.Builder
	var build func(depth int)
	build = func(depth int) {
		tag := r.pick(multiTags)
		sb.WriteString("<" + tag + ">")
		if depth >= 4 || r.next(4) == 0 {
			sb.WriteString(r.pick(multiValues))
		} else {
			for i, kids := 0, r.next(3)+1; i < kids; i++ {
				build(depth + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	sb.WriteString("<root>")
	for i, kids := 0, r.next(3)+1; i < kids; i++ {
		build(2)
	}
	sb.WriteString("</root>")
	return sb.String()
}

func randomMultiExpr(r *multiRng) string {
	expr := ""
	for i, steps := 0, r.next(3)+1; i < steps; i++ {
		if r.next(2) == 0 {
			expr += "//"
		} else {
			expr += "/"
		}
		name := r.pick(multiTags)
		if r.next(6) == 0 {
			name = "*"
		}
		expr += name
		if r.next(3) == 0 {
			pred := r.pick(multiTags)
			switch r.next(3) {
			case 0:
				expr += "[" + pred + "]"
			case 1:
				expr += fmt.Sprintf("[%s=%s]", pred, r.pick(multiValues))
			default:
				expr += fmt.Sprintf("[%s>%d]", pred, r.next(40))
			}
		}
	}
	return expr
}

func randomMultiPolicy(r *multiRng, subject string) xmlac.Policy {
	p := xmlac.Policy{Subject: subject}
	for i, n := 0, r.next(4)+1; i < n; i++ {
		sign := "+"
		if r.next(3) == 0 {
			sign = "-"
		}
		p.Rules = append(p.Rules, xmlac.Rule{ID: fmt.Sprintf("F%d", i), Sign: sign, Object: randomMultiExpr(r)})
	}
	if err := p.Validate(); err != nil {
		// The generator occasionally emits an expression outside the
		// fragment; fall back to a trivial valid policy.
		p.Rules = []xmlac.Rule{{ID: "F0", Sign: "+", Object: "//a"}}
	}
	return p
}

func TestAuthorizedViewsCompiledDifferential(t *testing.T) {
	const seeds = 100
	const subjectsPerScan = 3
	for seed := 0; seed < seeds; seed++ {
		r := newMultiRng(uint64(seed))
		doc, err := xmlac.ParseDocumentString(randomMultiDocXML(r))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		key := xmlac.DeriveKey(fmt.Sprintf("multi differential %d", seed))
		prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		views := make([]xmlac.CompiledView, subjectsPerScan)
		outputs := make([]*bytes.Buffer, subjectsPerScan)
		wantXML := make([]string, subjectsPerScan)
		wantMetrics := make([]xmlac.Metrics, subjectsPerScan)
		for i := 0; i < subjectsPerScan; i++ {
			cp, err := randomMultiPolicy(r, fmt.Sprintf("s%d", i)).Compile()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			opts := xmlac.ViewOptions{
				DummyDeniedNames: r.next(3) == 0,
				Indent:           r.next(3) == 0,
			}
			var solo bytes.Buffer
			m, err := prot.StreamAuthorizedViewCompiled(key, cp, opts, &solo)
			if err != nil {
				t.Fatalf("seed %d subject %d: solo stream: %v", seed, i, err)
			}
			wantXML[i] = solo.String()
			wantMetrics[i] = scrubSharedCosts(m)
			outputs[i] = &bytes.Buffer{}
			views[i] = xmlac.CompiledView{Policy: cp, Options: opts, Output: outputs[i]}
		}
		results, err := prot.AuthorizedViewsCompiled(key, views)
		if err != nil {
			t.Fatalf("seed %d: shared scan: %v", seed, err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("seed %d subject %d: %v", seed, i, res.Err)
			}
			if outputs[i].String() != wantXML[i] {
				t.Fatalf("seed %d subject %d: multicast bytes differ from solo\nmulti: %.300s\nsolo:  %.300s",
					seed, i, outputs[i].String(), wantXML[i])
			}
			if got := scrubSharedCosts(res.Metrics); got != wantMetrics[i] {
				t.Fatalf("seed %d subject %d: multicast metrics differ from solo (modulo shared costs)\nmulti: %+v\nsolo:  %+v",
					seed, i, got, wantMetrics[i])
			}
		}
	}
}

// TestAuthorizedViewsCompiledMaterialized: views without an Output writer
// materialize, matching AuthorizedViewCompiled.
func TestAuthorizedViewsCompiledMaterialized(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("multi materialized")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	policies := []xmlac.Policy{
		xmlac.SecretaryPolicy(),
		xmlac.DoctorPolicy("DrA"),
		xmlac.ResearcherPolicy("G1", "G3"),
	}
	views := make([]xmlac.CompiledView, len(policies))
	want := make([]string, len(policies))
	for i, p := range policies {
		cp, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		view, _, err := prot.AuthorizedViewCompiled(key, cp, xmlac.ViewOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = view.XML()
		views[i] = xmlac.CompiledView{Policy: cp}
	}
	results, err := prot.AuthorizedViewsCompiled(key, views)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("subject %d: %v", i, res.Err)
		}
		if res.View.XML() != want[i] {
			t.Fatalf("subject %d: materialized multicast view differs from solo", i)
		}
	}
}

// TestAuthorizedViewsCompiledSinkAbort: one subject's writer failing
// mid-scan surfaces only in that subject's result; the other subjects'
// streams complete byte-identical to their solo runs.
func TestAuthorizedViewsCompiledSinkAbort(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("multi abort")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	docCP, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	secCP, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var soloDoctor, soloSecretary bytes.Buffer
	if _, err := prot.StreamAuthorizedViewCompiled(key, docCP, xmlac.ViewOptions{}, &soloDoctor); err != nil {
		t.Fatal(err)
	}
	if _, err := prot.StreamAuthorizedViewCompiled(key, secCP, xmlac.ViewOptions{}, &soloSecretary); err != nil {
		t.Fatal(err)
	}

	lw := &limitedWriter{limit: soloDoctor.Len() / 10}
	var outSecretary, outDoctor bytes.Buffer
	results, err := prot.AuthorizedViewsCompiled(key, []xmlac.CompiledView{
		{Policy: docCP, Output: lw},
		{Policy: secCP, Output: &outSecretary},
		{Policy: docCP, Output: &outDoctor},
	})
	if err != nil {
		t.Fatalf("one failing writer must not abort the shared scan: %v", err)
	}
	if !errors.Is(results[0].Err, errBudgetExhausted) {
		t.Fatalf("failing subject must carry its write error, got %v", results[0].Err)
	}
	if results[1].Err != nil || results[2].Err != nil {
		t.Fatalf("surviving subjects failed: %v / %v", results[1].Err, results[2].Err)
	}
	if outSecretary.String() != soloSecretary.String() {
		t.Fatal("surviving secretary stream differs from solo after sibling abort")
	}
	if outDoctor.String() != soloDoctor.String() {
		t.Fatal("surviving doctor stream differs from solo after sibling abort")
	}
}

// TestAuthorizedViewsCompiledScanFailurePartialMetrics: a shared scan whose
// reader fails mid-document (one ciphertext byte flipped in the marshalled
// container) returns the error together with every subject's result, each
// carrying that error and the partial metrics of the work performed; the
// solo entry points, one-view scans, report the same partial metrics.
func TestAuthorizedViewsCompiledScanFailurePartialMetrics(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("multi scan failure")
	good, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	blob := good.Marshal()
	m := good.Manifest()
	blob[m.CiphertextOffset+m.CiphertextLen/2] ^= 0xff
	prot, err := xmlac.UnmarshalProtected(blob)
	if err != nil {
		t.Fatalf("a flipped ciphertext byte must still unmarshal: %v", err)
	}
	all, err := xmlac.Policy{Subject: "all", Rules: []xmlac.Rule{{Sign: "+", Object: "//Folder"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	secretary, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	results, err := prot.AuthorizedViewsCompiled(key, []xmlac.CompiledView{
		{Policy: all, Output: &out},
		{Policy: secretary},
	})
	if err == nil {
		t.Fatal("scan over a corrupted ciphertext must fail")
	}
	if len(results) != 2 {
		t.Fatalf("failed scan returned %d results, want one per subject", len(results))
	}
	for i, res := range results {
		if !errors.Is(res.Err, err) {
			t.Fatalf("subject %d: Err = %v, want the scan error %v", i, res.Err, err)
		}
		if res.View != nil {
			t.Fatalf("subject %d: failed scan materialized a view", i)
		}
		if res.Metrics == nil || res.Metrics.BytesDecrypted <= 0 || res.Metrics.NodesPermitted <= 0 {
			t.Fatalf("subject %d: no partial metrics for the work performed: %+v", i, res.Metrics)
		}
	}

	solo, err := prot.StreamAuthorizedViewCompiled(key, all, xmlac.ViewOptions{}, io.Discard)
	if err == nil || solo == nil {
		t.Fatalf("solo view over the corrupted ciphertext: metrics %+v, err %v; want partial metrics and an error", solo, err)
	}
	if scrubSharedCosts(solo) != scrubSharedCosts(results[0].Metrics) {
		t.Fatalf("solo partial metrics differ from the shared scan's (modulo shared costs):\nsolo:  %+v\nmulti: %+v",
			solo, results[0].Metrics)
	}
}
