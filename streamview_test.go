package xmlac_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/xmlstream"
)

// Streaming-delivery parity: a View streamed to a writer must produce
// byte-identical views and identical SOE metrics to a materialized View (a
// nil writer), locally and through the remote SOE, for every built-in policy
// of the paper's motivating example.

func streamParityPolicies() []xmlac.Policy {
	return []xmlac.Policy{
		xmlac.SecretaryPolicy(),
		xmlac.DoctorPolicy("DrA"),
		xmlac.ResearcherPolicy("G1", "G2", "G3"),
	}
}

// scrubTTFB zeroes the non-deterministic wall-clock counters so metrics
// records can be compared exactly.
func scrubTTFB(m *xmlac.Metrics) xmlac.Metrics {
	out := *m
	out.TimeToFirstByte = 0
	out.Duration = 0
	return out
}

func TestStreamAuthorizedViewParityLocal(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(48, 3), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("stream parity")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	optVariants := map[string]xmlac.ViewOptions{
		"plain":  {},
		"dummy":  {DummyDeniedNames: true},
		"query":  {Query: "//Folder[Admin/Age > 70]"},
		"indent": {Indent: true},
	}
	for _, policy := range streamParityPolicies() {
		cp, err := policy.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for name, opts := range optVariants {
			t.Run(policy.Subject+"/"+name, func(t *testing.T) {
				view, wantMetrics, err := prot.View(context.Background(), key, cp, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := view.XML()
				if opts.Indent {
					want = view.IndentedXML()
				}
				var buf bytes.Buffer
				_, gotMetrics, err := prot.View(context.Background(), key, cp, opts, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if buf.String() != want {
					t.Fatalf("streamed view differs from materialized view:\nstream: %.300s\ntree:   %.300s",
						buf.String(), want)
				}
				if scrubTTFB(gotMetrics) != scrubTTFB(wantMetrics) {
					t.Fatalf("streamed SOE metrics differ:\nstream: %+v\ntree:   %+v", gotMetrics, wantMetrics)
				}
				if len(want) > 0 && gotMetrics.TimeToFirstByte <= 0 {
					t.Fatalf("non-empty streamed view must stamp TimeToFirstByte, got %v", gotMetrics.TimeToFirstByte)
				}
				// The plaintext reference evaluator produces the same bytes.
				ref, err := xmlac.EvaluateDocument(doc, policy, opts)
				if err != nil {
					t.Fatal(err)
				}
				refXML := ref.XML()
				if opts.Indent {
					refXML = ref.IndentedXML()
				}
				if refXML != want {
					t.Fatal("view differs from EvaluateDocument, the plaintext reference")
				}
			})
		}
	}
}

func TestStreamAuthorizedViewEmpty(t *testing.T) {
	doc, err := xmlac.ParseDocumentString(`<a><b>v</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("empty stream")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.Policy{Subject: "u", Rules: []xmlac.Rule{{Sign: "+", Object: "//missing"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, metrics, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty authorized view must stream no bytes, got %q", buf.String())
	}
	if metrics.TimeToFirstByte != 0 {
		t.Fatalf("empty view must not stamp a first byte, got %v", metrics.TimeToFirstByte)
	}
}

// TestStreamAuthorizedViewStopsOnWriteError checks that a failing destination
// aborts the document scan: the evaluation must not keep decrypting (and
// charging the cost model) for a writer that no longer accepts bytes.
func TestStreamAuthorizedViewStopsOnWriteError(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(48, 3), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("stream abort")
	prot, err := xmlac.Protect(doc, key, xmlac.SchemeECBMHT)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &full); err != nil {
		t.Fatal(err)
	}
	lw := &limitedWriter{limit: full.Len() / 10}
	_, _, err = prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, lw)
	if !errors.Is(err, errBudgetExhausted) {
		t.Fatalf("streaming into a failing writer must surface the write error, got %v", err)
	}
	if lw.n > full.Len()/2 {
		t.Fatalf("evaluation kept writing after the destination failed: %d of %d bytes", lw.n, full.Len())
	}
}

var errBudgetExhausted = errors.New("view budget exhausted")

type limitedWriter struct {
	n     int
	limit int
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if l.n+len(p) > l.limit {
		return 0, errBudgetExhausted
	}
	l.n += len(p)
	return len(p), nil
}

func TestStreamRemoteViewParity(t *testing.T) {
	docURL, prot, key := startBlobServer(t, 48)
	for _, policy := range streamParityPolicies() {
		t.Run(policy.Subject, func(t *testing.T) {
			cp, err := policy.Compile()
			if err != nil {
				t.Fatal(err)
			}
			// Two independent handles, so both evaluations start from a cold
			// chunk cache and their wire counters are comparable exactly.
			matDoc, err := xmlac.OpenRemote(docURL, key)
			if err != nil {
				t.Fatal(err)
			}
			view, wantMetrics, err := matDoc.View(context.Background(), cp, xmlac.ViewOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			streamDoc, err := xmlac.OpenRemote(docURL, key)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			_, gotMetrics, err := streamDoc.View(context.Background(), cp, xmlac.ViewOptions{}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if buf.String() != view.XML() {
				t.Fatalf("remote streamed view differs from materialized view:\nstream: %.300s\ntree:   %.300s",
					buf.String(), view.XML())
			}
			if scrubTTFB(gotMetrics) != scrubTTFB(wantMetrics) {
				t.Fatalf("remote streamed metrics differ:\nstream: %+v\ntree:   %+v", gotMetrics, wantMetrics)
			}
			if gotMetrics.BytesOnWire <= 0 || gotMetrics.RoundTrips <= 0 {
				t.Fatalf("remote streaming reported no wire activity: %+v", gotMetrics)
			}
			if wire, _ := streamDoc.WireStats(); wire >= int64(prot.Size()) {
				t.Fatalf("streamed remote view transferred %d wire bytes, not less than the %d byte document",
					wire, prot.Size())
			}
		})
	}
}
