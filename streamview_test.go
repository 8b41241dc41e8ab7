package xmlac_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/secure"
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

// TestStreamAuthorizedViewStopsOnWriteError checks that a destination dying
// at any byte offset aborts the document scan: the view fails with the
// writer's error, the bytes delivered are a prefix of the full view, and the
// partial metrics come back and show that the scan stopped instead of
// decrypting (and charging the cost model) for a writer that no longer
// accepts bytes.
func TestStreamAuthorizedViewStopsOnWriteError(t *testing.T) {
	prot, key, _ := protectHospital(t, 48)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	_, fullMetrics, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &full)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, full.Len() / 10, full.Len() / 2, full.Len() - 1} {
		w := &failAfterWriter{n: cut}
		_, m, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, w)
		if !errors.Is(err, errWriterFull) {
			t.Fatalf("cut=%d: err = %v, want the writer's error", cut, err)
		}
		if m == nil {
			t.Fatalf("cut=%d: an aborted stream must report partial metrics", cut)
		}
		if !bytes.HasPrefix(full.Bytes(), w.written.Bytes()) {
			t.Fatalf("cut=%d: delivered bytes are not a prefix of the view", cut)
		}
		if cut <= full.Len()/2 && m.BytesDecrypted >= fullMetrics.BytesDecrypted {
			t.Fatalf("cut=%d: the scan kept decrypting after the writer failed (%d of %d bytes)",
				cut, m.BytesDecrypted, fullMetrics.BytesDecrypted)
		}
	}
}

// TestParallelStreamSinkAbort runs views of one protected document in
// parallel, half of them into writers that die at different byte offsets.
// Each aborted view fails with its writer's error, delivers a prefix of the
// full view and still reports partial metrics; each view running beside it
// is byte-identical to the full view, so an abort leaves nothing behind in
// what the views share (the version's Merkle leaf table).
func TestParallelStreamSinkAbort(t *testing.T) {
	prot, key, _ := protectHospital(t, 24)
	cp, err := xmlac.SecretaryPolicy().Compile()
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &full); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, cut := range []int{0, 1, full.Len() / 3, full.Len() / 2, full.Len() - 1} {
		wg.Add(2)
		go func(cut int) {
			defer wg.Done()
			w := &failAfterWriter{n: cut}
			_, m, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, w)
			switch {
			case !errors.Is(err, errWriterFull):
				t.Errorf("cut=%d: err = %v, want errWriterFull", cut, err)
			case m == nil:
				t.Errorf("cut=%d: aborted stream must report partial metrics", cut)
			case !bytes.HasPrefix(full.Bytes(), w.written.Bytes()):
				t.Errorf("cut=%d: delivered bytes are not a prefix of the full view", cut)
			}
		}(cut)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			if _, _, err := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, &out); err != nil {
				t.Errorf("view beside an aborted one: %v", err)
			} else if !bytes.Equal(out.Bytes(), full.Bytes()) {
				t.Error("view beside an aborted one differs from the full view")
			}
		}()
	}
	wg.Wait()
}

// failAfterWriter fails permanently once n bytes were accepted.
type failAfterWriter struct {
	n       int
	written bytes.Buffer
}

var errWriterFull = errors.New("writer full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	room := w.n - w.written.Len()
	if room <= 0 {
		return 0, errWriterFull
	}
	if len(p) <= room {
		w.written.Write(p)
		return len(p), nil
	}
	w.written.Write(p[:room])
	return room, errWriterFull
}

// TestViewScanFailurePartialMetrics: a scan whose reader fails mid-document
// (one ciphertext byte flipped in the marshalled container) returns the
// integrity error together with the partial Metrics of the work performed,
// streamed or materialized.
func TestViewScanFailurePartialMetrics(t *testing.T) {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(24, 7), false)
	doc, err := xmlac.ParseDocumentString(xml)
	if err != nil {
		t.Fatal(err)
	}
	key := xmlac.DeriveKey("scan failure")
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
	cp, err := xmlac.Policy{Subject: "all", Rules: []xmlac.Rule{{Sign: "+", Object: "//Folder"}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	_, streamed, streamErr := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, io.Discard)
	view, materialized, viewErr := prot.View(context.Background(), key, cp, xmlac.ViewOptions{}, nil)
	if view != nil {
		t.Fatal("a failed scan materialized a view")
	}
	for name, c := range map[string]struct {
		m   *xmlac.Metrics
		err error
	}{"streamed": {streamed, streamErr}, "materialized": {materialized, viewErr}} {
		if !errors.Is(c.err, secure.ErrIntegrity) {
			t.Fatalf("%s: err = %v, want an integrity error", name, c.err)
		}
		if c.m == nil || c.m.BytesDecrypted <= 0 || c.m.NodesPermitted <= 0 {
			t.Fatalf("%s: no partial metrics for the work performed: %+v", name, c.m)
		}
	}
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
