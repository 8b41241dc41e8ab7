package xmlac_test

import (
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
			m, err := prot.StreamAuthorizedViewCompiled(key, cp, xmlac.ViewOptions{}, io.Discard)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, subject, err)
			}
			if got := countsOf(m); got != bySubject[subject] {
				t.Errorf("%s/%s: counts %#v, want %#v", scheme, subject, got, bySubject[subject])
			}
		}
	}
}

func TestSOEAccountingPinnedParallel(t *testing.T) {
	prot, key := accountingDoc(t, xmlac.SchemeECBMHT)
	doctor, err := xmlac.DoctorPolicy("DrA").Compile()
	if err != nil {
		t.Fatal(err)
	}
	m, err := prot.StreamAuthorizedViewCompiled(key, doctor, xmlac.ViewOptions{Parallelism: 2}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers == 0 {
		t.Fatal("parallel view fell back to the serial scan")
	}
	if got, want := countsOf(m), (soeCounts{101144, 72768, 55353, 134, 2460, 175, 1152}); got != want {
		t.Errorf("parallel DrA: counts %#v, want %#v", got, want)
	}
}
