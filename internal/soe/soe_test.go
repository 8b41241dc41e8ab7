package soe

import (
	"testing"

	"xmlac/internal/accessrule"
	"xmlac/internal/dataset"
	"xmlac/internal/secure"
	"xmlac/internal/xmlstream"
	"xmlac/internal/xpath"
)

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	doc := dataset.HospitalFolders(60, 17)
	w, err := NewWorkload("hospital-test", doc, secure.DeriveKey("test"))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProfilesMatchTable1(t *testing.T) {
	profiles := Profiles()
	if len(profiles) != 3 {
		t.Fatalf("expected 3 profiles, got %d", len(profiles))
	}
	hw := HardwareSmartCard()
	if hw.CommBytesPerSec != 0.5*1024*1024 || hw.DecryptBytesPerSec != 0.15*1024*1024 {
		t.Errorf("hardware profile does not match Table 1: %+v", hw)
	}
	inet := SoftwareInternet()
	if inet.CommBytesPerSec != 0.1*1024*1024 || inet.DecryptBytesPerSec != 1.2*1024*1024 {
		t.Errorf("software-internet profile does not match Table 1: %+v", inet)
	}
	lan := SoftwareLAN()
	if lan.CommBytesPerSec != 10*1024*1024 || lan.DecryptBytesPerSec != 1.2*1024*1024 {
		t.Errorf("software-lan profile does not match Table 1: %+v", lan)
	}
	b := hw.Breakdown(1024*1024, 1024*1024, 0, 0)
	if b.CommunicationSeconds < 1.9 || b.CommunicationSeconds > 2.1 {
		t.Errorf("1 MB at 0.5 MB/s should take ~2s, got %f", b.CommunicationSeconds)
	}
	if b.DecryptionSeconds < 6.5 || b.DecryptionSeconds > 6.8 {
		t.Errorf("1 MB at 0.15 MB/s should take ~6.7s, got %f", b.DecryptionSeconds)
	}
	if b.Total() != b.CommunicationSeconds+b.DecryptionSeconds {
		t.Error("Total should sum the components")
	}
	if b.String() == "" || BruteForce.String() != "BF" || SkipIndexStrategy.String() != "TCSBR" || LowerBound.String() != "LWB" {
		t.Error("String methods incorrect")
	}
}

func TestStrategiesOrdering(t *testing.T) {
	w := testWorkload(t)
	profile := HardwareSmartCard()
	for _, policy := range []*accessrule.Policy{
		accessrule.SecretaryPolicy(),
		accessrule.DoctorPolicy("DrA"),
		accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...),
	} {
		var totals = map[Strategy]float64{}
		var reports = map[Strategy]*Report{}
		for _, strat := range []Strategy{BruteForce, SkipIndexStrategy, LowerBound} {
			rep, err := w.Run(RunSpec{
				Strategy: strat,
				Policy:   policy,
				Scheme:   secure.SchemeECB,
				Profile:  profile,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", policy.Subject, strat, err)
			}
			totals[strat] = rep.Breakdown.Total()
			reports[strat] = rep
		}
		// The headline result of Figure 9: LWB <= TCSBR < BF, with BF far
		// above TCSBR.
		if !(totals[LowerBound] <= totals[SkipIndexStrategy]*1.05) {
			t.Errorf("%s: LWB (%.3f) should not exceed TCSBR (%.3f)",
				policy.Subject, totals[LowerBound], totals[SkipIndexStrategy])
		}
		if !(totals[SkipIndexStrategy] < totals[BruteForce]) {
			t.Errorf("%s: TCSBR (%.3f) should beat BF (%.3f)",
				policy.Subject, totals[SkipIndexStrategy], totals[BruteForce])
		}
		// BF reads the entire encoded document.
		if reports[BruteForce].CommBytes < w.EncodedSize() {
			t.Errorf("%s: BF should transfer the whole document (%d < %d)",
				policy.Subject, reports[BruteForce].CommBytes, w.EncodedSize())
		}
		// TCSBR reads less than BF for selective policies.
		if reports[SkipIndexStrategy].CommBytes >= reports[BruteForce].CommBytes {
			t.Errorf("%s: TCSBR should transfer less than BF", policy.Subject)
		}
	}
}

func TestPipelineViewMatchesOracle(t *testing.T) {
	w := testWorkload(t)
	policy := accessrule.DoctorPolicy("DrB")
	oracle := accessrule.AuthorizedView(w.Doc, policy, accessrule.ViewOptions{})
	for _, strat := range []Strategy{BruteForce, SkipIndexStrategy} {
		for _, scheme := range []secure.Scheme{secure.SchemeECB, secure.SchemeECBMHT} {
			rep, err := w.Run(RunSpec{Strategy: strat, Policy: policy, Scheme: scheme, Profile: SoftwareLAN()})
			if err != nil {
				t.Fatalf("%v/%v: %v", strat, scheme, err)
			}
			if (rep.View == nil) != (oracle == nil) || (rep.View != nil && !rep.View.Equal(oracle)) {
				t.Fatalf("%v/%v: view does not match oracle", strat, scheme)
			}
			if rep.ResultBytes == 0 {
				t.Fatalf("%v/%v: result bytes not reported", strat, scheme)
			}
		}
	}
}

func TestIntegrityOverheadOrdering(t *testing.T) {
	w := testWorkload(t)
	policy := accessrule.DoctorPolicy("DrA")
	profile := HardwareSmartCard()
	totals := map[secure.Scheme]float64{}
	for _, scheme := range secure.Schemes() {
		rep, err := w.Run(RunSpec{Strategy: SkipIndexStrategy, Policy: policy, Scheme: scheme, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		totals[scheme] = rep.Breakdown.Total()
	}
	// Figure 11 ordering: ECB < ECB-MHT < CBC-SHAC < CBC-SHA.
	if !(totals[secure.SchemeECB] < totals[secure.SchemeECBMHT]) {
		t.Errorf("ECB (%.2f) should be cheaper than ECB-MHT (%.2f)", totals[secure.SchemeECB], totals[secure.SchemeECBMHT])
	}
	if !(totals[secure.SchemeECBMHT] < totals[secure.SchemeCBCSHAC]) {
		t.Errorf("ECB-MHT (%.2f) should be cheaper than CBC-SHAC (%.2f)", totals[secure.SchemeECBMHT], totals[secure.SchemeCBCSHAC])
	}
	if !(totals[secure.SchemeCBCSHAC] <= totals[secure.SchemeCBCSHA]) {
		t.Errorf("CBC-SHAC (%.2f) should not exceed CBC-SHA (%.2f)", totals[secure.SchemeCBCSHAC], totals[secure.SchemeCBCSHA])
	}
}

func TestAccessControlShareIsSmall(t *testing.T) {
	// The paper reports the access-control share of the total cost between
	// roughly 2% and 15%, dominated by decryption and communication.
	w := testWorkload(t)
	profile := HardwareSmartCard()
	for _, policy := range []*accessrule.Policy{
		accessrule.SecretaryPolicy(),
		accessrule.ResearcherPolicy(accessrule.ResearcherGroups(10)...),
	} {
		rep, err := w.Run(RunSpec{Strategy: SkipIndexStrategy, Policy: policy, Scheme: secure.SchemeECB, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		share := rep.Breakdown.AccessControlSeconds / rep.Breakdown.Total()
		if share > 0.30 {
			t.Errorf("%s: access-control share %.1f%% is too high", policy.Subject, share*100)
		}
		if rep.Breakdown.DecryptionSeconds < rep.Breakdown.AccessControlSeconds {
			t.Errorf("%s: decryption should dominate access control", policy.Subject)
		}
	}
}

func TestQueryRunAndThroughput(t *testing.T) {
	w := testWorkload(t)
	q := xpath.MustParse("//Folder[Admin/Age > 60]")
	rep, err := w.Run(RunSpec{
		Strategy: SkipIndexStrategy,
		Policy:   accessrule.DoctorPolicy("DrA"),
		Query:    q,
		Scheme:   secure.SchemeECB,
		Profile:  HardwareSmartCard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := accessrule.AuthorizedView(w.Doc, accessrule.DoctorPolicy("DrA"), accessrule.ViewOptions{Query: q})
	if (rep.View == nil) != (oracle == nil) || (rep.View != nil && !rep.View.Equal(oracle)) {
		t.Fatal("query view does not match oracle")
	}
	if tp := rep.Throughput(w.EncodedSize()); tp <= 0 {
		t.Fatalf("throughput should be positive, got %f", tp)
	}
	if (&Report{}).Throughput(1000) != 0 {
		t.Fatal("zero-time report should have zero throughput")
	}
}

func TestLowerBoundEmptyView(t *testing.T) {
	w := testWorkload(t)
	rep, err := w.Run(RunSpec{Strategy: LowerBound, Policy: accessrule.NewPolicy("nobody"), Scheme: secure.SchemeECB, Profile: HardwareSmartCard()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommBytes != 0 || rep.Breakdown.Total() != 0 {
		t.Fatalf("empty view should cost nothing for the oracle: %+v", rep)
	}
}

func TestWorkloadAccessors(t *testing.T) {
	w := testWorkload(t)
	if w.EncodedSize() <= 0 || w.Encoded() == nil {
		t.Fatal("encoded document missing")
	}
	p1, err := w.Protected(secure.SchemeECB)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := w.Protected(secure.SchemeECB)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("protected form should be cached")
	}
	if _, err := NewWorkload("bad", nil, secure.DeriveKey("k")); err == nil {
		t.Fatal("nil document must fail")
	}
	if _, err := w.Run(RunSpec{Strategy: Strategy(99), Policy: accessrule.SecretaryPolicy(), Profile: HardwareSmartCard()}); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestBruteForceEquivalentToTreeEvaluation(t *testing.T) {
	// Sanity: the BF pipeline (which hides the index) still sees the whole
	// document, so its view matches the tree-reader evaluation.
	doc := dataset.HospitalFolders(10, 3)
	w, err := NewWorkload("small", doc, secure.DeriveKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	policy := accessrule.ResearcherPolicy("G3")
	rep, err := w.Run(RunSpec{Strategy: BruteForce, Policy: policy, Scheme: secure.SchemeECB, Profile: SoftwareLAN()})
	if err != nil {
		t.Fatal(err)
	}
	oracle := accessrule.AuthorizedView(doc, policy, accessrule.ViewOptions{})
	if (rep.View == nil) != (oracle == nil) || (rep.View != nil && !rep.View.Equal(oracle)) {
		t.Fatalf("BF view mismatch:\ngot:  %s\nwant: %s",
			xmlstream.SerializeTree(rep.View, false), xmlstream.SerializeTree(oracle, false))
	}
}
