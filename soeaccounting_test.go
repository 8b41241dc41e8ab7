package xmlac_test

import (
	"context"
	"io"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// SOE accounting pins: the bytes a view moves across the SOE boundary and
// the decisions it takes are exact, deterministic counts. These constants
// were recorded from the evaluator, decoder and secure reader as they stood
// before the allocation-lean rewrite of the view hot path; any drift in the
// code that counts SOE bytes or drives Skip-index skips shows here, however
// small.

// soeCounts is the deterministic part of a view's Metrics.
type soeCounts struct {
	BytesTransferred, BytesDecrypted, BytesSkipped int64
	SubtreesSkipped                                int64
	NodesPermitted, NodesDenied, NodesPending      int64
}

func countsOf(m *xmlac.Metrics) soeCounts {
	return soeCounts{
		BytesTransferred: m.BytesTransferred,
		BytesDecrypted:   m.BytesDecrypted,
		BytesSkipped:     m.BytesSkipped,
		SubtreesSkipped:  m.SubtreesSkipped,
		NodesPermitted:   m.NodesPermitted,
		NodesDenied:      m.NodesDenied,
		NodesPending:     m.NodesPending,
	}
}

// accountingDoc protects HospitalFolders(40, 7) under one scheme.
func accountingDoc(t testing.TB, scheme xmlac.Scheme) (*xmlac.Protected, xmlac.Key) {
	t.Helper()
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(dataset.HospitalFolders(40, 7), false))
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("soe accounting")
	prot, err := xmlac.Protect(doc, key, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return prot, key
}

func accountingPolicies() map[string]xmlac.Policy {
	return map[string]xmlac.Policy{
		"secretary":  xmlac.SecretaryPolicy(),
		"DrA":        xmlac.DoctorPolicy("DrA"),
		"researcher": xmlac.ResearcherPolicy("G1", "G2", "G3"),
	}
}

func TestSOEAccountingPinned(t *testing.T) {
	want := map[xmlac.Scheme]map[string]soeCounts{
		xmlac.SchemeECB: {
			"secretary":  {6880, 6880, 117581, 110, 280, 151, 0},
			"DrA":        {69504, 69504, 55353, 134, 2460, 175, 1152},
			"researcher": {16848, 16848, 108338, 716, 0, 943, 509},
		},
		xmlac.SchemeECBMHT: {
			"secretary":  {23252, 8104, 117581, 110, 280, 151, 0},
			"DrA":        {90488, 70944, 55353, 134, 2460, 175, 1152},
			"researcher": {35076, 18072, 108338, 716, 0, 943, 509},
		},
		xmlac.SchemeCBCSHA: {
			"secretary":  {120816, 112408, 117581, 110, 280, 151, 0},
			"DrA":        {277032, 193680, 55353, 134, 2460, 175, 1152},
			"researcher": {153552, 122376, 108338, 716, 0, 943, 509},
		},
		xmlac.SchemeCBCSHAC: {
			"secretary":  {120816, 8104, 117581, 110, 280, 151, 0},
			"DrA":        {277032, 70944, 55353, 134, 2460, 175, 1152},
			"researcher": {153552, 18072, 108338, 716, 0, 943, 509},
		},
	}
	for scheme, bySubject := range want {
		prot, key := accountingDoc(t, scheme)
		for subject, policy := range accountingPolicies() {
			cp, err := policy.Compile()
			if err != nil {
				t.Fatal(err)
			}
			_, m, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, io.Discard)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, subject, err)
			}
			if got := countsOf(m); got != bySubject[subject] {
				t.Errorf("%s/%s: counts %#v, want %#v", scheme, subject, got, bySubject[subject])
			}
		}
	}
}

// TestDisableSkipIndexTakesNoSkips pins the brute-force behaviour of
// ViewOptions.DisableSkipIndex with a child-axis policy, whose tokens die
// without the index: the scan jumps over no subtree, so the SOE transfers
// the whole ciphertext, and the view is still the indexed view.
func TestDisableSkipIndexTakesNoSkips(t *testing.T) {
	doc, err := xmlac.ParseDocumentString(xmlstream.SerializeTree(dataset.Hospital(0.05), false))
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("brute force")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.Policy{Subject: "admin", Rules: []xmlac.Rule{{Sign: "+", Object: "/Hospital/Folder/Admin"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	indexed, mi, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mi.SubtreesSkipped == 0 {
		t.Fatal("the indexed view skipped nothing: the policy does not exercise subtree skips")
	}
	brute, m, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{DisableSkipIndex: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.SubtreesSkipped != 0 || m.BytesSkipped != 0 {
		t.Errorf("DisableSkipIndex skipped %d subtrees (%d bytes), want none", m.SubtreesSkipped, m.BytesSkipped)
	}
	if m.BytesTransferred < int64(prot.Size()) {
		t.Errorf("DisableSkipIndex transferred %d bytes of a %d byte document", m.BytesTransferred, prot.Size())
	}
	if brute.XML() != indexed.XML() {
		t.Error("DisableSkipIndex changed the view")
	}
}
